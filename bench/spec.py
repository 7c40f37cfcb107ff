"""Workload definitions, seeded inputs and the lattice-count oracle.

Three closed-loop workloads (one caller; the next call starts when the
previous one returns) exercise the package through its public entry
points:

* ``fig1_sweep``: the paper's figure-1 run, ``sweep --a -10`` over the
  integer b grid [-9, 200] at ``--size 1000``.  The eigensolve
  dominates; only counts and extremes are consumed.
* ``trajectories_fine``: ``trajectories --a -10`` at the CLI default
  ``--size 400`` on the step-0.25 grid over the same range.  Every
  eigenvalue is consumed and the CLI formats ~10 MB of CSV.
* ``lattice_queries``: seeded (a, b) windows checked with
  ``negative_eigenvalue_bound`` and cross-checked with
  ``exact_negative_count``.  No matrix is built.

The seed only permutes the b grid of the two matrix workloads (their
stored reference covers every grid point) and places the lattice
queries.  The lattice b values are stratified: each decade of
[1e2, 1e6] is cut into equal log-width strata and every stratum gets an
antithetic pair at seeded log positions u and 1 - u.  A query's cost
grows like b^1.5, so a plain log-uniform draw would make the run length
swing several-fold with the seed; with 12 strata per decade the
modelled cost of the 96 queries varies by under 0.5% across seeds.

Each untraced run measures about 20-30 s of work.  On a shared 2-vCPU
Xeon host the speed of interpreter-bound code wanders by up to 1.5x in
stretches of seconds to minutes, so ``wall_s`` is scaled to reference
host speed by the kernel named in ``Workload.speed`` (see ``speed.py``),
the lattice workload has 12 strata per decade, and the trajectories
workload runs ``passes = 2`` passes per run and reports their mean.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

PI2 = math.pi ** 2

#: Negative-eigenvalue threshold used by the sweeps (the CLI default).
DELTA = 1e-5

#: Lattice queries keep at least this distance from every Neumann
#: level, so no query sits where float64 cannot decide resonance.
QUERY_CLEARANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep", "trajectories" or "queries"
    a: float = -10.0
    size: int = 0
    grid: tuple[float, float, float] = (0.0, 0.0, 0.0)
    decades: tuple[int, int] = (0, 0)
    strata: int = 0
    passes: int = 1  # untraced passes per run; wall_s is their mean
    speed: str = "lapack"  # the kernel that scales wall_s (speed.py)


FULL = {
    w.name: w for w in (
        Workload("fig1_sweep", "sweep", size=1000,
                 grid=(-9.0, 200.0, 1.0)),
        Workload("trajectories_fine", "trajectories", size=400,
                 grid=(-9.0, 200.0, 0.25), passes=2),
        Workload("lattice_queries", "queries", decades=(2, 6), strata=12,
                 speed="loop"),
    )
}

#: Tiny versions of the same workloads for the self-test.
QUICK = {
    w.name: w for w in (
        Workload("fig1_sweep", "sweep", size=16,
                 grid=(-9.0, 20.0, 1.0)),
        Workload("trajectories_fine", "trajectories", size=16,
                 grid=(-9.0, 20.0, 0.5), passes=2),
        Workload("lattice_queries", "queries", decades=(2, 4), strata=1,
                 speed="loop"),
    )
}


def b_grid(wl: Workload) -> list[float]:
    """The b grid in natural order, computed as the CLI computes it."""
    b_min, b_max, step = wl.grid
    count = int((b_max - b_min) / step + 1e-9) + 1
    return [b_min + i * step for i in range(count)]


def _rng(wl: Workload, seed: int) -> random.Random:
    return random.Random(f"{wl.name}:{seed}")


def grid_inputs(wl: Workload, seed: int) -> list[float]:
    """The workload's b grid in a seeded order."""
    grid = b_grid(wl)
    _rng(wl, seed).shuffle(grid)
    return grid


def cli_argv(wl: Workload, b_values: list[float], out: str) -> list[str]:
    argv = [wl.kind, f"--a={wl.a!r}"]
    argv += [f"--b={b!r}" for b in b_values]
    return argv + ["--size", str(wl.size), "--out", out]


class LatticeOracle:
    """Independent count of (l, m) with a < pi^2*(l^2 + m^2) < b.

    Enumerates the lattice with numpy once up to ``b_max`` and answers
    each window with two binary searches.  Levels are formed as
    ``PI2 * n`` exactly as the package forms them.
    """

    def __init__(self, b_max: float) -> None:
        r = math.isqrt(int(max(b_max, 0.0) / PI2)) + 2
        l = np.arange(r, dtype=np.int64)
        self.levels = np.sort(PI2 * (l[:, None] ** 2 + l[None, :] ** 2).ravel())

    def count(self, a: float, b: float) -> int:
        lo = np.searchsorted(self.levels, a, side="right")
        return int(np.searchsorted(self.levels, b, side="left") - lo)

    def clearance(self, x: float) -> float:
        i = int(np.searchsorted(self.levels, x))
        near = self.levels[max(0, i - 1):i + 1]
        return float(np.min(np.abs(near - x)))


def smallest_cutoff(b: float) -> int:
    """Smallest mode_cutoff that ``exact_negative_count`` accepts."""
    c = max(1, math.isqrt(int(b / PI2)))
    while PI2 * c * c <= b:
        c += 1
    return c


def query_inputs(wl: Workload, seed: int) -> list[tuple[float, float, int]]:
    """Seeded (a, b, mode_cutoff) queries, the same count per decade."""
    rng = _rng(wl, seed)
    first, last = wl.decades
    oracle = LatticeOracle(10.0 ** last + 1.0)
    queries = []
    for decade in range(first, last):
        for stratum in range(wl.strata):
            u = rng.random()
            for pos in (u, 1.0 - u):
                b = 10.0 ** (decade + (stratum + pos) / wl.strata)
                while oracle.clearance(b) < QUERY_CLEARANCE:
                    b = math.nextafter(b, math.inf) + QUERY_CLEARANCE
                a = rng.uniform(-50.0, 50.0)
                while oracle.clearance(a) < QUERY_CLEARANCE:
                    a = rng.uniform(-50.0, 50.0)
                queries.append((a, b, smallest_cutoff(b)))
    return queries
