"""Scalar closed forms of the side-block diagonals, as a test reference.

These are the per-entry functions the package evaluated before
:func:`ndsquare.nd_matrix.sum_formula` took arrays, kept verbatim so
the array evaluation is checked bit for bit against an independent
scalar path rather than against itself.
"""

import math

from ndsquare.nd_matrix import _check_trig_pole
from ndsquare.spectrum import DEFAULT_GUARD, PI2, ResonanceError

#: Threshold above which csch(x)/x is evaluated as 2*exp(-x)/x, since
#: sinh overflows near 710 (the entries decay like 1/x).
LARGE_ARG = 30.0


def _coth_over(x: float) -> float:
    # coth(x)/x for x > 0; from about x = 19 on tanh(x) rounds to 1.0,
    # so this is 1/x there bit for bit and needs no large-x form
    return 1.0 / (math.tanh(x) * x)


def _csch_over(x: float) -> float:
    # csch(x)/x for x > 0; harmless underflow to 0 for very large x
    if x > LARGE_ARG:
        return 2.0 * math.exp(-x) / x
    return 1.0 / (math.sinh(x) * x)


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
    if c > 0:
        x = math.sqrt(c)
        return _coth_over(x) if kind == "plain" else _csch_over(x)
    _check_trig_pole(-c, guard)
    s = math.sqrt(-c)
    if kind == "plain":
        return -math.cos(s) / (math.sin(s) * s)
    return -1.0 / (math.sin(s) * s)


def same_side_diagonal(a: float, k: float, j_modes: int) -> list[float]:
    """Same-side diagonal entries i < j_modes, one scalar call each."""
    return [sum_formula("plain", PI2 * i * i - a * k * k) for i in range(j_modes)]


def opposite_side_diagonal(a: float, k: float, j_modes: int) -> list[float]:
    """Opposite-side diagonal entries i < j_modes, ``+ 0.0`` included."""
    return [
        (-1.0 if i % 2 else 1.0)
        * sum_formula("alternating", PI2 * i * i - a * k * k)
        + 0.0
        for i in range(j_modes)
    ]
