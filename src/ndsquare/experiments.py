"""Sweep and crossing experiments on the operator difference.

Three experiment drivers, all working on the eigenvalues of the
difference of two truncated Neumann-to-Dirichlet matrices:

* ``sweep``: fix a, vary b over a grid; per point, count eigenvalues
  below -delta and compare with the lattice bound.  The measured count
  never exceeds the bound; resonant b values are recorded as skipped
  points (not perturbed, which would silently change the bound).
* ``trajectories``: full descending spectrum of the difference per b,
  for plotting eigenvalue flows.
* ``verify_crossing``: place the coefficient window symmetrically
  around a Neumann eigenvalue pi^2*n/k^2 of multiplicity N and check
  that the difference across the window has exactly N eigenvalues below
  -delta.  Equality is only guaranteed for small enough windows, so a
  disagreeing first attempt is retried once at half the width and both
  attempts are reported.

Every spectrum is :func:`~ndsquare.linalg.circulant_spectrum` of the
differenced side blocks (:func:`~ndsquare.nd_matrix.side_blocks`); the
dense 4J×4J matrix is never formed.  Grid points are processed in input
order and the outputs are deterministic functions of the inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .linalg import DEFAULT_DELTA, circulant_spectrum, count_negative
from .nd_matrix import side_blocks
# bench/layers.py wraps these two names in this namespace, so they stay
# bound; the experiments use the block path above instead
from .linalg import symmetric_eigenvalues  # noqa: F401
from .nd_matrix import assemble  # noqa: F401
from .spectrum import (
    DEFAULT_GUARD,
    PI2,
    ProblemParams,
    ResonanceError,
    is_resonant,
    multiplicity,
    negative_eigenvalue_bound,
)


@dataclass(frozen=True)
class BoundReport:
    """One sweep point: measured negative count vs the lattice bound.

    ``skipped`` marks resonant b values; their measurement fields are
    None.  For valid points ``measured_negative <= theoretical_bound``
    always holds (a violation would falsify the monotonicity bound and
    is treated as a hard failure by the test suite).
    """

    a: float
    b: float
    k: float
    modes_per_side: int
    delta: float
    skipped: bool
    measured_negative: int | None
    theoretical_bound: int | None
    min_eigenvalue: float | None
    max_eigenvalue: float | None


@dataclass(frozen=True)
class TrajectoryPoint:
    """Full descending spectrum of the difference matrix at one b."""

    b: float
    skipped: bool
    eigenvalues: tuple[float, ...] | None


@dataclass(frozen=True)
class CrossingAttempt:
    eps: float
    measured: int


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of a crossing experiment at level n.

    ``expected`` is the multiplicity of pi^2*n; ``attempts`` holds the
    (eps, measured) pairs actually run (one, or two when the first
    width disagreed and was halved).
    """

    n: int
    k: float
    modes_per_side: int
    delta: float
    expected: int
    attempts: tuple[CrossingAttempt, ...]

    @property
    def eps(self) -> float:
        return self.attempts[-1].eps

    @property
    def measured(self) -> int:
        return self.attempts[-1].measured

    @property
    def agreed(self) -> bool:
        return self.measured == self.expected


def _theoretical_bound(a: float, b: float, k: float, guard: float) -> int:
    # b == a gives the empty window without tripping the a < b precondition
    if b == a:
        return 0
    return negative_eigenvalue_bound(a, b, k, guard)


def _difference_spectra(
    a: float,
    b_values: Sequence[float],
    k: float,
    modes_per_side: int,
    guard: float,
) -> Iterator[tuple[float, np.ndarray | None]]:
    """Yield (b, descending spectrum of Λ(b) − Λ(a)) in grid order.

    The spectrum is None for a resonant b.  The base coefficient a is
    validated and its side blocks assembled once, on the first
    ``next``; no 4J×4J matrix is formed.
    """
    if is_resonant(a, k, guard):
        raise ResonanceError(f"base coefficient a={a!r} is resonant")
    if any(b < a for b in b_values):
        raise ValueError("b >= a is required at every grid point")
    base = side_blocks(
        ProblemParams(a=a, k=k, modes_per_side=modes_per_side, guard=guard)
    )
    for b in b_values:
        if is_resonant(b, k, guard):
            yield b, None
            continue
        blocks = side_blocks(
            ProblemParams(a=b, k=k, modes_per_side=modes_per_side, guard=guard)
        )
        for block, base_block in zip(blocks, base):
            block -= base_block
        yield b, circulant_spectrum(*blocks)


def sweep(
    a: float,
    b_values: Sequence[float],
    k: float = 1.0,
    modes_per_side: int = 100,
    delta: float = DEFAULT_DELTA,
    guard: float = DEFAULT_GUARD,
) -> list[BoundReport]:
    """Per-b comparison of measured negative counts with the lattice bound.

    The matrix at coefficient a is assembled once and reused.  Each
    b must satisfy b >= a; resonant b values produce skipped reports.
    A resonant a is an error (the whole sweep would be meaningless).
    """
    reports: list[BoundReport] = []
    for b, eigs in _difference_spectra(a, b_values, k, modes_per_side, guard):
        if eigs is None:
            reports.append(
                BoundReport(
                    a=a, b=b, k=k, modes_per_side=modes_per_side, delta=delta,
                    skipped=True, measured_negative=None,
                    theoretical_bound=None, min_eigenvalue=None,
                    max_eigenvalue=None,
                )
            )
            continue
        reports.append(
            BoundReport(
                a=a, b=b, k=k, modes_per_side=modes_per_side, delta=delta,
                skipped=False,
                measured_negative=count_negative(eigs, delta),
                theoretical_bound=_theoretical_bound(a, b, k, guard),
                min_eigenvalue=float(eigs[-1]),
                max_eigenvalue=float(eigs[0]),
            )
        )
    return reports


def trajectories(
    a: float,
    b_values: Sequence[float],
    k: float = 1.0,
    modes_per_side: int = 100,
    guard: float = DEFAULT_GUARD,
) -> list[TrajectoryPoint]:
    """Descending spectrum of the difference matrix for each b."""
    return [
        TrajectoryPoint(
            b=b, skipped=eigs is None,
            eigenvalues=None if eigs is None else tuple(float(v) for v in eigs),
        )
        for b, eigs in _difference_spectra(
            a, b_values, k, modes_per_side, guard
        )
    ]


def _check_window_isolated(n: int, eps: float, k: float) -> None:
    # no other Neumann eigenvalue may fall inside the closed window
    # [c - eps, c + eps] around c = pi^2*n/k^2; only integer levels
    # inside the window need checking
    c = PI2 * n / (k * k)
    lo, hi = c - eps, c + eps
    first = max(0, math.ceil(lo * k * k / PI2) - 1)
    last = math.floor(hi * k * k / PI2) + 1
    for other in range(first, last + 1):
        if other == n or multiplicity(other) == 0:
            continue
        level = PI2 * other / (k * k)
        if lo <= level <= hi:
            raise ValueError(
                f"window around pi^2*{n}/k^2 with eps={eps} also contains "
                f"the eigenvalue pi^2*{other}/k^2; shrink eps"
            )


def _measure_crossing(
    n: int, eps: float, k: float, modes_per_side: int, delta: float,
    guard: float,
) -> int:
    c = PI2 * n / (k * k)
    ((upper, eigs),) = _difference_spectra(
        c - eps, [c + eps], k, modes_per_side, guard
    )
    if eigs is None:
        raise ResonanceError(f"crossing window end {upper!r} is resonant")
    return count_negative(eigs, delta)


def verify_crossing(
    n: int,
    eps: float = 0.1,
    k: float = 1.0,
    modes_per_side: int = 100,
    delta: float = DEFAULT_DELTA,
    guard: float = DEFAULT_GUARD,
) -> CrossingReport:
    """Count negatives across the eigenvalue crossing at pi^2*n/k^2.

    With c = pi^2*n/k^2, the difference of the matrices at coefficients
    c + eps and c - eps has exactly multiplicity(n) eigenvalues below
    -delta once eps is small enough.  If the first width disagrees, the
    measurement is retried once at eps/2; both attempts appear in the
    report.

    The window (c - eps, c + eps) must contain no other Neumann
    eigenvalue (checked by lattice enumeration) and eps must exceed the
    resonance guard.  k*k must be a finite positive normal float, since
    the level is placed at pi^2*n/k^2.
    """
    k2 = k * k
    if not (math.isfinite(k2) and k2 >= sys.float_info.min):
        raise ValueError(
            f"k*k = {k2!r} (k={k!r}) is not a finite positive normal float"
        )
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps <= guard:
        raise ValueError(f"eps={eps} must exceed the resonance guard {guard}")
    expected = multiplicity(n)
    if expected < 1:
        raise ValueError(
            f"n={n} is not a sum of two squares; pi^2*n is not a Neumann "
            f"eigenvalue"
        )
    _check_window_isolated(n, eps, k)

    attempts = [
        CrossingAttempt(
            eps=eps,
            measured=_measure_crossing(n, eps, k, modes_per_side, delta, guard),
        )
    ]
    if attempts[0].measured != expected:
        half = eps / 2.0
        _check_window_isolated(n, half, k)
        attempts.append(
            CrossingAttempt(
                eps=half,
                measured=_measure_crossing(
                    n, half, k, modes_per_side, delta, guard
                ),
            )
        )
    return CrossingReport(
        n=n, k=k, modes_per_side=modes_per_side, delta=delta,
        expected=expected, attempts=tuple(attempts),
    )
