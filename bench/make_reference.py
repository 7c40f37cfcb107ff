"""Regenerate the stored per-item references under ``bench/reference/``.

Usage: ``python3 bench/make_reference.py`` from the repository root.

Runs the sweep and trajectory workloads (full and self-test sizes) once
on their natural b grid through ``ndsquare.cli`` and stores, per b
point, the skip flag, the measured count, the bound and the extreme
eigenvalues (sweep) or the whole descending spectrum (trajectories,
quantized to ``gate.EIG_QUANTUM``), as xz-compressed ``.npz`` files.
The stored files are the outputs of the package at the commit that
defined the benchmark; regenerate them only when the reference itself
is meant to change.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import gate
import spec

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ndsquare import cli

    work = ROOT / ".bench_build" / "ndsquare"
    work.mkdir(parents=True, exist_ok=True)
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for quick, table in ((False, spec.FULL), (True, spec.QUICK)):
        for wl in table.values():
            if wl.kind == "queries":
                continue
            grid = spec.b_grid(wl)
            out = str(work / f"reference-{wl.name}.csv")
            if cli.main(spec.cli_argv(wl, grid, out)) != 0:
                raise SystemExit(f"{wl.name}: the package failed")
            target = gate.reference_path(wl, quick)
            if wl.kind == "sweep":
                rows = gate.parse_sweep_csv(out)
                skipped = np.array([r[1] for r in rows])
                gate.save_reference(
                    target,
                    b=np.array([r[0] for r in rows]),
                    skipped=skipped,
                    count=np.array([-1 if r[1] else r[2] for r in rows]),
                    bound=np.array([-1 if r[1] else r[3] for r in rows]),
                    min=np.array([np.nan if r[1] else r[4] for r in rows]),
                    max=np.array([np.nan if r[1] else r[5] for r in rows]),
                )
            else:
                points = {b: eig for b, _, eig in gate.parse_trajectories_csv(out)}
                eig = np.full((len(grid), wl.size), np.nan)
                for i, b in enumerate(grid):
                    if b in points:
                        eig[i] = points[b]
                gate.save_reference(
                    target, b=np.array(grid),
                    skipped=np.array([b not in points for b in grid]),
                    eig=gate.quantize_spectra(eig),
                )
            print(f"wrote {target.relative_to(ROOT)} ({target.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
