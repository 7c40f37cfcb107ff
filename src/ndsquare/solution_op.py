"""Spectral representation of the Helmholtz solution operator.

On the unit square the solution operator of the constant-coefficient
Neumann problem diagonalizes in the Laplacian Neumann eigenbasis: the
compact operator generated by the H^1 -> L^2 embedding has eigenvalue
1/(1 + pi^2*(l^2+m^2)) on mode (l, m), and the difference of two
solution operators at coefficients b and a acts diagonally with
coefficients

    c = 1/(1 - (1 + b*k^2)*lam) - 1/(1 - (1 + a*k^2)*lam),

lam the embedding eigenvalue.  A coefficient is negative exactly when
pi^2*(l^2+m^2) lies strictly between a*k^2 and b*k^2, and counting the
negative ones is the benchmark's cross-check of the lattice bound; it
stays here until it moves into the tests.  Only signs are consumed, so
the H^1 normalization (which rescales magnitudes but not signs) is omitted.
"""

from __future__ import annotations

import numpy as np

from .spectrum import (
    DEFAULT_GUARD,
    PI2,
    ResonanceError,
    _checked_threshold,
    _first,
    _integer,
    _row_heights,
)
# bench/layers.py wraps is_resonant in this namespace, so it stays bound
from .spectrum import is_resonant  # noqa: F401

#: Largest number of lattice modes ``exact_negative_count`` evaluates
#: at once (whole rows of the half m >= l, at least one row).
BLOCK_MODES = 16384


def embedding_eigenvalue(mode: tuple[int, int]) -> float:
    """Eigenvalue 1/(1 + pi^2*(l^2+m^2)) of the compact embedding operator."""
    l, m = mode
    if l < 0 or m < 0:
        raise ValueError(f"mode indices must be nonnegative, got ({l}, {m})")
    return 1.0 / (1.0 + PI2 * (l * l + m * m))


def solution_diff_coefficient(
    mode: tuple[int, int],
    a: float,
    b: float,
    k: float = 1.0,
    guard: float = DEFAULT_GUARD,
) -> float:
    """Diagonal coefficient of the solution-operator difference on a mode.

    For a < b the value is negative iff a*k^2 < pi^2*(l^2+m^2) < b*k^2.
    Either denominator within the guard of zero (the mode is resonant
    for that coefficient) raises :class:`ResonanceError`.
    """
    l, m = mode
    level = PI2 * (l * l + m * m)
    for label, coeff in (("a", a), ("b", b)):
        if abs(level - coeff * k * k) < guard:
            raise ResonanceError(
                f"mode ({l}, {m}) is resonant for coefficient "
                f"{label}={coeff!r}"
            )
    lam = embedding_eigenvalue(mode)
    return 1.0 / (1.0 - (1.0 + b * k * k) * lam) - 1.0 / (
        1.0 - (1.0 + a * k * k) * lam
    )


def exact_negative_count(
    a: float,
    b: float,
    k: float = 1.0,
    mode_cutoff: int = 40,
    guard: float = DEFAULT_GUARD,
) -> int:
    """Number of negative diagonal coefficients over modes l, m <= cutoff.

    Every sign change happens at a mode with pi^2*(l^2+m^2) < b*k^2, so
    the count is exact (and equals the lattice bound) once
    pi^2*mode_cutoff^2 > b*k^2; smaller cutoffs raise ``ValueError``,
    and so does a cutoff past the lattice walk's row budget.  Only modes
    l, m <= c are evaluated, c the least accepted cutoff (1 if
    b*k^2 <= 0): the rest lie at least pi^2*(2c+1) above b*k^2, where
    (1 + a*k^2)*lam <= (1 + b*k^2)*lam < 1 in float, so none counts.
    A resonant a or b raises the gate's :class:`ResonanceError`; once
    both are accepted, no mode lies within the guard of a*k^2 or b*k^2,
    since a block forms each level as ``PI2 * (l*l + m*m)``, the very
    expression :func:`~ndsquare.spectrum.is_resonant` scans.

    Only the modes with m >= l are evaluated: (l, m) and (m, l) have the
    same coefficient, bit for bit.  A block of rows l in [l0, l0 + r)
    spans columns m in [l0, c]; its leading r-by-r square holds both
    orders of its pairs and counts with weight 1, and each later column,
    where m > l, counts with weight 2.
    """
    if not a < b:
        raise ValueError(f"requires a < b, got a={a}, b={b}")
    mode_cutoff = _integer(
        mode_cutoff, 1, "mode_cutoff must be >= 1 and an integer"
    )
    # the walk's row budget, before any float product or block is formed
    refusal = "mode_cutoff of {} bits: the count"
    _row_heights(mode_cutoff**2, refusal, mode_cutoff.bit_length())
    if PI2 * mode_cutoff * mode_cutoff <= b * k * k:
        raise ValueError(
            f"mode_cutoff={mode_cutoff} too small: pi^2*cutoff^2 = "
            f"{PI2 * mode_cutoff**2:.6g} <= b*k^2 = {b * k * k:.6g}; "
            f"sign changes could fall outside the enumerated window"
        )
    for coeff in (a, b):
        _checked_threshold(coeff, k, guard)
    side = 1 + _first(1, mode_cutoff + 1, lambda c: PI2 * c * c > b * k * k)
    squares = np.arange(float(side))
    squares *= squares  # exact below 2**53: the levels are the scalar ones
    # every block is evaluated in place in the same two buffers: a new
    # block-sized array per operation makes glibc trim and regrow the heap
    buffers = np.empty((2, max(BLOCK_MODES, side)))
    count = 0
    l0 = 0
    while l0 < side:
        width = side - l0
        rows = min(width, max(1, BLOCK_MODES // width))
        block = buffers[:, :rows * width].reshape(2, rows, width)
        lam, hi = block[0], block[1]
        np.add.outer(squares[l0:l0 + rows], squares[l0:], out=lam)
        lam *= PI2
        lam += 1.0
        np.divide(1.0, lam, out=lam)
        for coeff, out in ((b, hi), (a, lam)):
            np.multiply(1.0 + coeff * k * k, lam, out=out)
            np.subtract(1.0, out, out=out)
            np.divide(1.0, out, out=out)
        # hi - lo < 0 exactly when hi < lo, for every pair of floats
        negative = np.less(hi, lam)
        count += int(np.count_nonzero(negative))
        if rows < width:
            count += int(np.count_nonzero(negative[:, rows:]))
        l0 += rows
    return count
