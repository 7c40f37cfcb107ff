"""Scalar closed forms of the side blocks, as a test reference.

These are the per-entry functions the package evaluated before its
closed forms took arrays (now :func:`ndsquare.nd_matrix.side_diagonals`)
and before ``side_blocks`` became the only evaluation of the next-side
block, kept verbatim so the array evaluation is checked bit for bit
against an independent scalar path rather than against itself.

``sum_formula`` here keeps the per-entry resonance check the package
ran before resonance was decided once per coefficient by
:func:`ndsquare.spectrum.is_resonant`.  It computes the level as
``(pi^2*n)*n`` where ``is_resonant`` computes ``pi^2*(n*n)``, so at the
guard edge it refuses coefficients that ``is_resonant`` accepts.  The
diagonal builders therefore evaluate ``closed_form``, the same value
code without the check, except for an entry within
``NEAR_LEVEL_SWITCH`` of its nearest level, which ``near_level_form``
evaluates one scalar at a time as the package's split into a pole and
a regular series.

The functions at the end are the earlier forms of the per-point work
around the eigensolve, kept verbatim as oracles for the current ones:
the next-side block as an outer product divided by an outer-sum
denominator, ``circulant_spectrum`` with one LAPACK call per
eigenproblem (five per point), and the trajectories CSV built one
formatted line per eigenvalue.  ``full_square_negative_count`` is the
solution-operator count as it was before it evaluated each mirrored
pair (l, m), (m, l) once: every mode of the square, in blocks of whole
rows.
"""

import math

import numpy as np

from ndsquare.cli import TRAJECTORIES_CSV_HEADER
from ndsquare.nd_matrix import NEAR_LEVEL_SWITCH
from ndsquare.spectrum import (
    DEFAULT_GUARD,
    PI2,
    ResonanceError,
    _checked_threshold,
)
from oracles import normalizer

#: Largest number of lattice modes ``full_square_negative_count``
#: evaluates at once (whole rows, at least one).
BLOCK_MODES = 16384

#: Threshold above which csch(x)/x is evaluated as 2*exp(-x)/x, since
#: sinh overflows near 710 (the entries decay like 1/x).
LARGE_ARG = 30.0


def _check_trig_pole(c_neg: float, guard: float) -> None:
    # cot/csc pole at sqrt(c_neg) = pi*n, i.e. c_neg = pi^2*n^2; measured
    # in the same absolute units of a*k^2 as the resonance guard
    n = round(math.sqrt(c_neg) / math.pi)
    for cand in (n - 1, n, n + 1):
        if cand >= 1 and abs(c_neg - PI2 * cand * cand) < guard:
            raise ResonanceError(
                f"argument {c_neg!r} is within {guard} of the trigonometric "
                f"pole at (pi*{cand})^2; the coefficient is resonant"
            )


def _coth_over(x: float) -> float:
    # coth(x)/x for x > 0; from about x = 19 on tanh(x) rounds to 1.0,
    # so this is 1/x there bit for bit and needs no large-x form
    return 1.0 / (math.tanh(x) * x)


def _csch_over(x: float) -> float:
    # csch(x)/x for x > 0; harmless underflow to 0 for very large x
    if x > LARGE_ARG:
        return 2.0 * math.exp(-x) / x
    return 1.0 / (math.sinh(x) * x)


def closed_form(kind: str, c: float) -> float:
    """The value of :func:`sum_formula` at a nonzero c, unchecked."""
    if c > 0:
        x = math.sqrt(c)
        return _coth_over(x) if kind == "plain" else _csch_over(x)
    s = math.sqrt(-c)
    if kind == "plain":
        return -math.cos(s) / (math.sin(s) * s)
    return -1.0 / (math.sin(s) * s)


def sum_formula(kind: str, c: float, guard: float = DEFAULT_GUARD) -> float:
    """Closed form of the mode series sum_m d_m^2 / (pi^2*m^2 + c).

    ``kind="plain"`` sums the series as written: coth(sqrt(c))/sqrt(c)
    for c > 0 and -cot(sqrt(-c))/sqrt(-c) for c < 0.
    ``kind="alternating"`` inserts a factor (-1)^m: csch(sqrt(c))/sqrt(c)
    for c > 0 and -csc(sqrt(-c))/sqrt(-c) for c < 0.

    Raises :class:`ResonanceError` within the guard of c = 0 or of a
    pole sqrt(-c) in pi*N.
    """
    if kind not in ("plain", "alternating"):
        raise ValueError(f"kind must be 'plain' or 'alternating', got {kind!r}")
    if abs(c) < guard:
        raise ResonanceError(f"c = {c!r} is within {guard} of the pole at 0")
    if not c > 0:
        _check_trig_pole(-c, guard)
    return closed_form(kind, c)


def near_level_form(kind: str, i: int, ak2: float) -> float | None:
    """The split diagonal entry of row i next to a level, else None.

    The nearest level of the row is pi^2*(i^2 + m0^2); within
    ``NEAR_LEVEL_SWITCH`` of it the entry is its pole d_m0^2 / L, with L
    rounded as ``PI2 * (i*i + m0*m0) - ak2``, plus the regular rest:
    for m0 = 0 a series in c = pi^2*i^2 - ak2, for m0 >= 1 one in
    t = sqrt(-c) - pi*m0.  The alternating kind carries (-1)^m0.
    """
    c = PI2 * i * i - ak2
    m0 = round(math.sqrt(max(-c, 0.0)) / math.pi)
    level = PI2 * (i * i + m0 * m0) - ak2
    if not abs(level) < NEAR_LEVEL_SWITCH:
        return None
    plain = kind == "plain"
    if m0 == 0:
        if plain:
            rest = 1 / 3 + c * (-1 / 45 + c * (2 / 945))
        else:
            rest = -1 / 6 + c * (7 / 360 - c * (31 / 15120))
        return 1.0 / level + rest
    s = math.sqrt(-c)
    t = s - math.pi * m0
    t2 = t * t
    q = 1.0 / (s * (s + math.pi * m0))
    if plain:
        odd = t * (1 / 3 + t2 * (1 / 45 + t2 * (2 / 945)))
        return 2.0 / level + (q + odd / s)
    odd = t * (1 / 6 + t2 * (7 / 360 + t2 * (31 / 15120)))
    value = 2.0 / level + (q - odd / s)
    return -value if m0 % 2 else value


def _diagonal_entry(kind: str, i: int, ak2: float) -> float:
    near = near_level_form(kind, i, ak2)
    return closed_form(kind, PI2 * i * i - ak2) if near is None else near


def same_side_diagonal(a: float, k: float, j_modes: int) -> list[float]:
    """Same-side diagonal entries i < j_modes, one scalar call each."""
    return [_diagonal_entry("plain", i, a * k * k) for i in range(j_modes)]


def opposite_side_diagonal(a: float, k: float, j_modes: int) -> list[float]:
    """Opposite-side diagonal entries i < j_modes, ``+ 0.0`` included."""
    return [
        (-1.0 if i % 2 else 1.0) * _diagonal_entry("alternating", i, a * k * k)
        + 0.0
        for i in range(j_modes)
    ]


def adjacent_next_entry(
    i: int, j: int, a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> float:
    """Entry coupling mode i of a side to mode j of the next side (ccw).

    Returns (-1)^i * d_i * d_j / (pi^2*(i^2+j^2) - a*k^2) with the
    normalizers d of :func:`normalizer`.
    """
    den = PI2 * (i * i + j * j) - a * k * k
    if abs(den) < guard:
        raise ResonanceError(
            f"pi^2*(i^2+j^2) - a*k^2 = {den!r} is within {guard} of zero; "
            f"the coefficient is resonant"
        )
    sign = -1.0 if i % 2 else 1.0
    return sign * normalizer(i) * normalizer(j) / den


def adjacent_prev_entry(
    i: int, j: int, a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> float:
    """Entry coupling mode i of a side to mode j of the previous side (cw).

    Equals ``adjacent_next_entry(j, i, a, k)``: the sign is (-1)^j.
    """
    return adjacent_next_entry(j, i, a, k, guard)


def outer_product_next_block(params) -> np.ndarray:
    """The next-side block of ``side_blocks`` from J×J temporaries."""
    j_modes = params.modes_per_side
    ak2 = params.a * params.k * params.k

    idx = np.arange(j_modes)
    d = np.where(idx == 0, 1.0, math.sqrt(2.0))
    sign = np.where(idx % 2 == 0, 1.0, -1.0)
    sq = idx * idx

    denom = PI2 * np.add.outer(sq, sq)
    denom -= ak2
    block_next = np.multiply.outer(sign * d, d)
    block_next /= denom
    return block_next


def five_call_circulant_spectrum(
    same: np.ndarray, opposite: np.ndarray, block_next: np.ndarray
) -> np.ndarray:
    """``circulant_spectrum`` with one ``eigvalsh`` call per problem."""
    plus = same + opposite
    parts = []
    for half in (slice(0, None, 2), slice(1, None, 2)):
        diag = np.diag(plus[half])
        coupling = 2 * block_next[half, half]
        parts.append(np.linalg.eigvalsh(diag + coupling))
        parts.append(np.linalg.eigvalsh(diag - coupling))
    rotation = np.diag(same - opposite)
    rotation[1::2, 0::2] = 2 * block_next[1::2, 0::2]
    # -2N[0::2, 1::2] by the sign of N; the transpose keeps a zero
    # entry of N (equal coefficients, zeroed border) at +0.0
    rotation[0::2, 1::2] = rotation[1::2, 0::2].T
    rotation = np.linalg.eigvalsh(rotation)
    parts += [rotation, rotation]
    return np.sort(np.concatenate(parts))[::-1]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def per_line_trajectories_csv(points) -> str:
    """The trajectories CSV text, one formatted line per eigenvalue."""
    lines = [TRAJECTORIES_CSV_HEADER]
    for point in points:
        if point.skipped:
            continue
        b = _fmt(point.b)
        for idx, eig in enumerate(point.eigenvalues):
            lines.append(f"{b},{idx},{_fmt(eig)}")
    return "\n".join(lines) + "\n"


def full_square_negative_count(
    a: float,
    b: float,
    k: float = 1.0,
    mode_cutoff: int = 40,
    guard: float = DEFAULT_GUARD,
) -> int:
    """Number of negative diagonal coefficients over modes l, m <= cutoff.

    Every sign change happens at a mode with pi^2*(l^2+m^2) < b*k^2, so
    the count is exact (and equals the lattice bound) once
    pi^2*mode_cutoff^2 > b*k^2; smaller cutoffs raise ``ValueError``.
    A resonant a or b raises the gate's :class:`ResonanceError`; once
    both are accepted, no mode lies within the guard of a*k^2 or b*k^2.
    """
    if not a < b:
        raise ValueError(f"requires a < b, got a={a}, b={b}")
    if mode_cutoff < 1:
        raise ValueError(f"mode_cutoff must be >= 1, got {mode_cutoff}")
    if PI2 * mode_cutoff * mode_cutoff <= b * k * k:
        raise ValueError(
            f"mode_cutoff={mode_cutoff} too small: pi^2*cutoff^2 = "
            f"{PI2 * mode_cutoff**2:.6g} <= b*k^2 = {b * k * k:.6g}; "
            f"sign changes could fall outside the enumerated window"
        )
    for coeff in (a, b):
        _checked_threshold(coeff, k, guard)
    side = mode_cutoff + 1
    m_sq = np.arange(side) ** 2
    rows = max(1, BLOCK_MODES // side)
    # every block is evaluated in place in the same two buffers: a new
    # block-sized array per operation makes glibc trim and regrow the heap
    buffers = np.empty((2, rows, side))
    count = 0
    for first_l in range(0, side, rows):
        l = np.arange(first_l, min(first_l + rows, side))
        lam, hi = buffers[:, :len(l)]
        np.add.outer(l * l, m_sq, out=lam)
        lam *= PI2
        lam += 1.0
        np.divide(1.0, lam, out=lam)
        for coeff, out in ((b, hi), (a, lam)):
            np.multiply(1.0 + coeff * k * k, lam, out=out)
            np.subtract(1.0, out, out=out)
            np.divide(1.0, out, out=out)
        count += int(np.count_nonzero(np.subtract(hi, lam, out=hi) < 0.0))
    return count
