"""Correctness gate: every item of a pass is checked before a number posts.

An item is one b point or one lattice query.  An item fails on an
exception, a count, bound or skip flag that differs from the reference,
an extreme or spectrum eigenvalue farther than ``EIG_ATOL`` from the
reference, ``measured > bound``, or an oracle count that differs from
the bound.  A resonant skip that the reference expects is not a failure.

The sweep and trajectory references are the outputs of the package at
the commit that defined this benchmark, stored per b point under
``reference/``.  Eigenvalues are compared within an absolute tolerance
far below the counting threshold delta = 1e-5, never bytewise, so a
solver that changes the last bits still passes.  Lattice queries are
seeded, so their reference is computed per run by the independent
numpy lattice count of :class:`spec.LatticeOracle`.
"""

from __future__ import annotations

import io
import lzma
from pathlib import Path

import numpy as np

from spec import DELTA, LatticeOracle, Workload

#: Absolute eigenvalue tolerance, 1000 times below delta.
EIG_ATOL = 1e-8

#: Stored spectra are integers in units of this quantum (rounding error
#: 5e-11, far below EIG_ATOL), differenced along the eigenvalue index so
#: that the compressed file stays small.
EIG_QUANTUM = 1e-10

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(wl: Workload, quick: bool) -> Path:
    return REFERENCE_DIR / f"{wl.name}{'.quick' if quick else ''}.npz.xz"


def save_reference(path: Path, **arrays) -> None:
    with lzma.open(path, "wb", preset=9) as fh:
        np.savez(fh, **arrays)


def quantize_spectra(eig: np.ndarray) -> np.ndarray:
    """Spectra (NaN rows for skipped points) as storable integers."""
    q = np.round(np.nan_to_num(eig) / EIG_QUANTUM).astype(np.int64)
    return np.diff(q, axis=1, prepend=0)


def dequantize_spectra(q: np.ndarray) -> np.ndarray:
    return np.cumsum(q, axis=1) * EIG_QUANTUM


def parse_sweep_csv(path: str) -> list[tuple]:
    """Rows (b, skipped, measured, bound, min, max) of a sweep CSV."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            b, measured, bound, lo, hi, skipped = line.rstrip("\n").split(",")
            if skipped == "1":
                rows.append((float(b), True, None, None, None, None))
            else:
                rows.append((float(b), False, int(measured), int(bound),
                             float(lo), float(hi)))
    return rows


def parse_trajectories_csv(path: str) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Per b in output order: (b, index column, eigenvalue column)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(data[:, 0]) != 0) + 1
    return [
        (float(chunk[0, 0]), chunk[:, 1], chunk[:, 2])
        for chunk in np.split(data, cuts)
    ]


def load_reference(wl: Workload, quick: bool) -> dict:
    """Reference keyed by b (matrix workloads); {} for lattice queries."""
    if wl.kind == "queries":
        return {}
    raw = lzma.decompress(reference_path(wl, quick).read_bytes())
    with np.load(io.BytesIO(raw)) as ref:
        if wl.kind == "sweep":
            return {
                float(b): (bool(s), int(c), int(n), float(lo), float(hi))
                for b, s, c, n, lo, hi in zip(
                    ref["b"], ref["skipped"], ref["count"], ref["bound"],
                    ref["min"], ref["max"])
            }
        spectra = dequantize_spectra(ref["eig"])
        return {
            float(b): None if s else eig
            for b, s, eig in zip(ref["b"], ref["skipped"], spectra)
        }


def query_reference(queries) -> list[int]:
    oracle = LatticeOracle(max(b for _, b, _ in queries))
    return [oracle.count(a, b) for a, b, _ in queries]


def _check_sweep(inputs, rows, ref, failures):
    for i, b in enumerate(inputs):
        item = f"b={b!r}"
        if i >= len(rows) or rows[i][0] != b:
            failures[item] = "row missing or out of input order"
            continue
        _, skipped, measured, bound, lo, hi = rows[i]
        r_skipped, r_count, r_bound, r_lo, r_hi = ref[b]
        if skipped != r_skipped:
            failures[item] = f"skipped={skipped}, reference {r_skipped}"
        elif skipped:
            continue
        elif measured > bound:
            failures[item] = f"measured {measured} > bound {bound}"
        elif (measured, bound) != (r_count, r_bound):
            failures[item] = (f"measured/bound {measured}/{bound}, "
                              f"reference {r_count}/{r_bound}")
        elif max(abs(lo - r_lo), abs(hi - r_hi)) > EIG_ATOL:
            failures[item] = (f"extremes ({lo!r}, {hi!r}), reference "
                              f"({r_lo!r}, {r_hi!r})")
    if len(rows) > len(inputs):
        failures["output"] = f"{len(rows) - len(inputs)} unexpected rows"


def _check_trajectories(wl, inputs, points, ref, failures):
    oracle = LatticeOracle(max(inputs))
    by_b = {b: (idx, eig) for b, idx, eig in points}
    expected_order = [b for b in inputs if ref[b] is not None]
    if [b for b, _, _ in points] != expected_order:
        failures["output"] = "b points missing, repeated or out of order"
    for b in inputs:
        item = f"b={b!r}"
        r_eig = ref[b]
        if r_eig is None:
            if b in by_b:
                failures[item] = "reference skips this resonant b"
            continue
        if b not in by_b:
            failures[item] = "point missing"
            continue
        idx, eig = by_b[b]
        if not np.array_equal(idx, np.arange(r_eig.size)):
            failures[item] = f"{idx.size} eigenvalues, reference {r_eig.size}"
            continue
        err = float(np.max(np.abs(eig - r_eig)))
        measured = int(np.count_nonzero(eig < -DELTA))
        bound = oracle.count(wl.a, b)
        if measured > bound:
            failures[item] = f"measured {measured} > bound {bound}"
        elif err > EIG_ATOL:
            failures[item] = f"spectrum differs from reference by {err:.3e}"


def _check_queries(queries, answers, expected, failures):
    for i, ((a, b, _), answer, want) in enumerate(zip(queries, answers, expected)):
        item = f"query {i} (a={a!r}, b={b!r})"
        bound, exact, error = answer
        if error is not None:
            failures[item] = error
        elif bound != want:
            failures[item] = f"bound {bound}, reference {want}"
        elif exact != bound:
            failures[item] = f"exact_negative_count {exact} != bound {bound}"


def check(wl: Workload, inputs, result: dict, out: str | None, ref) -> dict[str, str]:
    """Failures of one pass, keyed by item name.

    ``ref`` is the stored reference for the matrix workloads and the
    expected bounds for lattice queries.
    """
    failures: dict[str, str] = {}
    if result.get("error") and wl.kind != "queries":
        return {f"b={b!r}": result["error"] for b in inputs}
    if wl.kind == "sweep":
        _check_sweep(inputs, parse_sweep_csv(out), ref, failures)
    elif wl.kind == "trajectories":
        _check_trajectories(wl, inputs, parse_trajectories_csv(out), ref,
                            failures)
    else:
        _check_queries(inputs, result["answers"], ref, failures)
    return failures


def tamper(wl: Workload, inputs, ref):
    """A copy of ``ref`` with one deliberately wrong entry, and its item."""
    if wl.kind == "queries":
        bad = list(ref)
        bad[0] += 1
        a, b, _ = inputs[0]
        return bad, f"query 0 (a={a!r}, b={b!r})"
    bad = dict(ref)
    b = next(b for b in inputs if bad[b] is not None and (
        wl.kind == "trajectories" or not bad[b][0]))
    if wl.kind == "sweep":
        skipped, count, bound, lo, hi = bad[b]
        bad[b] = (skipped, count, bound + 1, lo, hi)
    else:
        eig = bad[b].copy()
        eig[0] += 1e-6
        bad[b] = eig
    return bad, f"b={b!r}"
