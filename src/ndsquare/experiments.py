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
  -delta.  The window must hold no other level: its lattice count
  (``negative_eigenvalue_bound``) must equal N.  Equality is only
  guaranteed for small enough windows, so a disagreeing first attempt
  is retried once at half the width and both attempts are reported.

All three consume :func:`difference_spectra`, the one experiment loop.
It solves the grid in batches of points, with one
:func:`~ndsquare.nd_matrix.side_blocks` and one
:func:`~ndsquare.linalg.circulant_spectrum` call per batch, and hands
each spectrum on as soon as its batch is solved, so a consumer that
streams (the CLI's ``trajectories`` CSV writer) holds one batch at a
time.  The dense 4J×4J matrix is never formed, and the outputs are
deterministic functions of the inputs.
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
    _modes_below,
    is_resonant,
    multiplicity,
    negative_eigenvalue_bound,
)

#: Next-side block entries P·J² per batch of grid points: a batch holds
#: max(1, BATCH_ENTRIES // J**2) points, 6 at J = 100 and 1 from J = 182.
BATCH_ENTRIES = 2**16


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
    def measured(self) -> int:
        return self.attempts[-1].measured

    @property
    def agreed(self) -> bool:
        return self.measured == self.expected


def difference_spectra(
    a: float,
    b_values: Sequence[float],
    k: float,
    modes_per_side: int,
    guard: float,
) -> Iterator[tuple[float, np.ndarray | None]]:
    """Iterate (b, descending spectrum of Λ(b) − Λ(a)) in grid order.

    The spectrum is None for a resonant b.  Before this returns, a and
    ``modes_per_side`` are validated by one :class:`ProblemParams`,
    every b is decided by one :func:`is_resonant` call (so a b that
    cannot be decided raises here, before any eigensolve) and the side
    blocks of a are assembled.  The valid b values are then solved in
    input order, ``max(1, BATCH_ENTRIES // modes_per_side**2)`` at a
    time: one :func:`side_blocks` call on the batch's array of b·k² and
    one :func:`circulant_spectrum` call per batch, each spectrum yielded
    as soon as its batch is solved and bit for bit the spectrum of that
    b alone.  No 4J×4J matrix is formed.
    """
    try:
        ProblemParams(a=a, k=k, modes_per_side=modes_per_side, guard=guard)
    except ResonanceError:
        raise ResonanceError(f"base coefficient a={a!r} is resonant") from None
    if any(b < a for b in b_values):
        raise ValueError("b >= a is required at every grid point")
    resonant = [is_resonant(b, k, guard) for b in b_values]
    base = side_blocks(a * k * k, modes_per_side)
    ak2 = np.array(
        [b * k * k for b, skip in zip(b_values, resonant) if not skip]
    )
    size = max(1, BATCH_ENTRIES // modes_per_side**2)

    def solved() -> Iterator[np.ndarray]:
        for start in range(0, len(ak2), size):
            blocks = side_blocks(ak2[start:start + size], modes_per_side)
            for block, base_block in zip(blocks, base):
                block -= base_block
            yield from circulant_spectrum(*blocks)

    spectra = solved()
    return (
        (b, None if skip else next(spectra))
        for b, skip in zip(b_values, resonant)
    )


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

    Resonance is decided once per coefficient, for a and every b, and
    then every b's lattice count is taken, all before the first
    eigensolve: a b past the decidability limit or past the row budget
    of the count raises ValueError before any matrix is solved.  The
    bound of a window with validated ends is the difference of the two
    lattice counts of ``negative_eigenvalue_bound``, 0 for b == a.
    """
    reports: list[BoundReport] = []
    spectra = difference_spectra(a, b_values, k, modes_per_side, guard)
    modes_below_a = _modes_below(a * k * k)
    bounds = [_modes_below(b * k * k) - modes_below_a for b in b_values]
    for (b, eigs), bound in zip(spectra, bounds):
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
                theoretical_bound=bound,
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
    """Descending spectrum of the difference matrix for each b.

    Returns a list of every point; to hold one batch at a time,
    iterate :func:`difference_spectra` instead.
    """
    return [
        TrajectoryPoint(
            b=b, skipped=eigs is None,
            eigenvalues=None if eigs is None else tuple(eigs.tolist()),
        )
        for b, eigs in difference_spectra(
            a, b_values, k, modes_per_side, guard
        )
    ]


def _measure_crossing(
    c: float, eps: float, k: float, modes_per_side: int, delta: float,
    guard: float,
) -> int:
    ((upper, eigs),) = difference_spectra(
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
    eigenvalue (checked by the lattice count of the window, which must
    equal multiplicity(n)) and eps must exceed the resonance guard.
    k*k must be a finite positive normal float, since the level is
    placed at pi^2*n/k^2.  The window is counted first, so a level past
    the resonance decidability limit fails before multiplicity(n) runs.
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
    try:
        c = PI2 * n / k2
    except OverflowError:
        raise ValueError(
            f"pi^2*n overflows a float: n has {n.bit_length()} bits"
        ) from None
    try:
        inside = negative_eigenvalue_bound(c - eps, c + eps, k, guard)
    except ResonanceError:
        raise ResonanceError(
            f"window around pi^2*{n}/k^2 with eps={eps} ends within the "
            f"guard {guard} of a Neumann eigenvalue; change eps"
        ) from None
    expected = multiplicity(n)
    if expected < 1:
        raise ValueError(
            f"n={n} is not a sum of two squares; pi^2*n is not a Neumann "
            f"eigenvalue"
        )
    if inside != expected:
        raise ValueError(
            f"window around pi^2*{n}/k^2 with eps={eps} holds {inside} "
            f"Neumann eigenvalues, not the {expected} of level {n}; "
            f"shrink eps"
        )

    attempts = []
    for width in (eps, eps / 2.0):
        measured = _measure_crossing(c, width, k, modes_per_side, delta, guard)
        attempts.append(CrossingAttempt(eps=width, measured=measured))
        if measured == expected:
            break
    return CrossingReport(
        n=n, k=k, modes_per_side=modes_per_side, delta=delta,
        expected=expected, attempts=tuple(attempts),
    )
