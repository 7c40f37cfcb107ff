"""Exact Neumann spectrum of the Laplacian on the unit square.

The Neumann eigenfunctions of -Delta on (0,1)^2 are the products
cos(pi*l*x)*cos(pi*m*y) indexed by integer pairs (l, m) with l, m >= 0,
with eigenvalues pi^2*(l^2 + m^2).  For the Helmholtz operator
Delta + k^2*a with constant coefficient a these shift to
a*k^2 - pi^2*(l^2 + m^2), so every spectral question about the constant
coefficient problem reduces to counting lattice points l^2 + m^2 against
the threshold a*k^2:

* ``positive_eigenvalue_count(a, k)`` counts modes with
  pi^2*(l^2+m^2) < a*k^2 (the number of positive Helmholtz Neumann
  eigenvalues).
* ``negative_eigenvalue_bound(a, b, k)`` counts modes in the open window
  (a*k^2, b*k^2); this is the dimension bound for the number of negative
  eigenvalues of the difference of the two Neumann-to-Dirichlet maps.
* ``multiplicity(n)`` counts ordered representations n = l^2 + m^2,
  i.e. the multiplicity of pi^2*n as a Neumann eigenvalue.

A pair (a, k) is *resonant* when a*k^2 coincides with some
pi^2*(l^2+m^2): the Neumann problem is then not uniquely solvable and
every counting operation is ill-posed.  Floating-point equality is
meaningless, so resonance means "within ``guard`` of an eigenvalue"
(default ``DEFAULT_GUARD``); the one gate ``_checked_threshold`` refuses
such a coefficient with one :class:`ResonanceError` message instead of
silently picking a side of the window edge.  Where resonance cannot be
decided (a non-finite input, a float spacing of a*k^2 that reaches the
guard), ``is_resonant`` raises ``ValueError``.  A level is found by one
bisection, or by one comparison, and each lattice question is then one
walk of the rows; more than ``RESONANCE_SCAN_STEPS`` rows raise it too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

PI2 = math.pi ** 2

#: Absolute tolerance, in units of a*k^2, inside which a coefficient is
#: treated as resonant.
DEFAULT_GUARD = 1e-9

#: Most rows l = 0, 1, ..., isqrt(top) that one walk of the lattice rows
#: may take, for a mode count, a multiplicity, a resonance decision or
#: the oracle's cutoff.
RESONANCE_SCAN_STEPS = 2 ** 20


class ResonanceError(ValueError):
    """Raised when a*k^2 is within the guard of a Neumann eigenvalue."""


def _integer(value, least: int, refusal: str, below: str | None = None) -> int:
    """``operator.index(value)`` if it is an integer >= ``least``.

    Anything else raises ``ValueError(f"{refusal}, got {value!r}")``: a
    bool (True is no count, though it indexes as 1), 2.5, 4.0 or "4",
    and an integer below ``least``, named ``below`` when that is given.
    An integer of 4000 bits or more is named by its bit length, since
    Python refuses to write out one of more than 4300 digits.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError(f"{refusal}, got {value!r}")
    if index >= least:
        return index
    bits = index.bit_length()
    shown = f"an integer of {bits} bits" if bits >= 4000 else repr(index)
    raise ValueError(f"{below or refusal}, got {shown}")


@dataclass(frozen=True)
class ProblemParams:
    """Configuration shared by all matrix and experiment operations.

    Attributes
    ----------
    a : float
        Constant coefficient value of the Helmholtz equation.
    k : float
        Wavenumber, k > 0.
    modes_per_side : int
        Number of cosine modes kept per side of the square; the
        truncated Neumann-to-Dirichlet matrix has size
        ``4 * modes_per_side``.
    guard : float
        Resonance guard tolerance (absolute, in units of a*k^2).

    Raises
    ------
    ResonanceError
        If ``a * k**2`` lies within ``guard`` of pi^2*(l^2+m^2) for some
        mode, i.e. the Neumann problem is (numerically) ill-posed.
    ValueError
        If k <= 0, modes_per_side is not an integer >= 1, guard is not
        a positive finite number, a*k^2 is not finite, or a*k^2 is
        beyond the decidability limit (``ProblemParams(a=1e300)``):
        wherever :func:`is_resonant` cannot decide.
    """

    a: float
    k: float = 1.0
    modes_per_side: int = 100
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        _integer(
            self.modes_per_side, 1, "modes_per_side must be an integer >= 1"
        )
        # is_resonant refuses a k or a guard that is not positive
        _checked_threshold(self.a, self.k, self.guard)


def _row_heights(top: int, refusal: str, *about):
    """isqrt(top - l^2) for each lattice row l = 0, 1, ..., isqrt(top).

    Row l holds height + 1 points (l, m), those with l^2 + m^2 <= top.
    More than ``RESONANCE_SCAN_STEPS`` rows raise ValueError at the
    call, named by ``refusal.format(*about)``, formed only then.
    """
    rows = math.isqrt(top) + 1
    if rows > RESONANCE_SCAN_STEPS:
        limit = f"takes more than {RESONANCE_SCAN_STEPS} lattice rows"
        raise ValueError(f"{refusal.format(*about)} {limit}")
    return (math.isqrt(top - l * l) for l in range(rows))


def _first(lo: int, hi: int, rises) -> int:
    """Least n in lo..hi-1 where the monotone ``rises(n)`` holds, else hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rises(mid) else (mid + 1, hi)
    return lo


def multiplicity(n: int) -> int:
    """Number of ordered pairs (l, m) with l, m >= 0 and l^2 + m^2 = n.

    This is the multiplicity of pi^2*n as a Neumann eigenvalue of -Delta
    on the unit square (0 when n is not a sum of two squares).  Ordered
    pairs are counted, so (1, 2) and (2, 1) both contribute for n = 5.
    An n from 2^40 on takes more than ``RESONANCE_SCAN_STEPS`` lattice
    rows and raises ``ValueError``.
    """
    n = _integer(n, 0, "n must be an integer", "n must be nonnegative")
    refusal = "n of {} bits: counting its representations"
    rows = enumerate(_row_heights(n, refusal, n.bit_length()))
    return sum(l * l + m * m == n for l, m in rows)


def is_resonant(a: float, k: float, guard: float = DEFAULT_GUARD) -> bool:
    """Whether a*k^2 lies within ``guard`` of some pi^2*(l^2+m^2).

    The integer levels n with |a*k^2 - pi^2*n| < guard are one run
    least..top, bisected at both ends; one walk of the rows of top decides
    them all.  Negative thresholds are never resonant unless a*k^2 is
    within the guard of zero (the l = m = 0 eigenvalue).  A non-finite
    a*k^2 raises ``ValueError``: it lies on neither side of any
    eigenvalue.  So do a guard that is not a positive finite number, a top
    of more than ``RESONANCE_SCAN_STEPS`` rows, and a positive a*k^2 whose
    float spacing ``math.ulp`` is at least ``guard`` (from 2^23, about
    8.4e6, at the default guard): there the rounding of a*k^2 and of
    pi^2*n alone reaches the guard, so resonance cannot be decided.
    """
    if not k > 0:
        raise ValueError(f"wavenumber k must be positive, got {k}")
    if not guard > 0:
        raise ValueError(f"guard must be positive, got {guard}")
    if not math.isfinite(guard):
        raise ValueError(f"guard must be finite, got {guard}")
    target = a * k * k
    if not math.isfinite(target):
        raise ValueError(
            f"a*k^2 = {target!r} (a={a!r}, k={k!r}) is not a finite number"
        )
    if target > 0 and math.ulp(target) >= guard:
        raise ValueError(
            f"a*k^2 = {target!r} is beyond the decidability limit: its float "
            f"spacing {math.ulp(target):.3g} is not below the resonance "
            f"guard {guard}"
        )
    center = round(target / PI2)
    reach = math.ceil(guard / PI2) + 1
    start, end = max(0, center - reach), center + reach + 1
    # PI2 * n never decreases in n, so each end of the run is bisected: a
    # scan would pass ~ulp(target)/pi^2 levels that round to one float
    least = _first(start, end, lambda n: target - PI2 * n < guard)
    if not (least < end and abs(target - PI2 * least) < guard):
        return False
    top = _first(least, end, lambda n: PI2 * n - target >= guard) - 1
    # row l holds a level of the run iff its highest point reaches least
    refusal = "a*k^2 = {!r} with guard {}: deciding resonance"
    rows = enumerate(_row_heights(top, refusal, target, guard))
    return any(l * l + m * m >= least for l, m in rows)


def _checked_threshold(a: float, k: float, guard: float) -> float:
    if is_resonant(a, k, guard):
        raise ResonanceError(
            f"a*k^2 = {a * k * k!r} is within {guard} of a Neumann "
            f"eigenvalue pi^2*(l^2+m^2): the coefficient is resonant and "
            f"the Neumann problem is ill-posed"
        )
    return a * k * k


def _modes_below(target: float) -> int:
    """#{(l, m) : l, m >= 0 and pi^2*(l^2 + m^2) < target}.

    One comparison finds the largest level n = top with ``PI2 * n <
    target``; the count is then the sum of the heights + 1 of the rows
    up to top.  More than ``RESONANCE_SCAN_STEPS`` rows (from about
    1.09e13) raise ValueError.
    """
    if target <= 0:
        return 0
    refusal = "a*k^2 = {!r}: counting the modes below it"
    # target / PI2 is correctly rounded, so below 2^52 the top is its
    # integer part or the one below; the walk refuses every top from 2^40 on
    top = int(target / PI2)
    top -= PI2 * top >= target
    return sum(_row_heights(top, refusal, target), math.isqrt(top) + 1)


def positive_eigenvalue_count(
    a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> int:
    """Number of positive Neumann eigenvalues of Delta + k^2*a.

    Equals #{(l, m) : pi^2*(l^2+m^2) < a*k^2}, counted with
    multiplicity.  Raises :class:`ResonanceError` when (a, k) is
    resonant, since the strict inequality is then meaningless.  Raises
    ``ValueError`` where :func:`is_resonant` cannot decide, and for an
    a*k^2 from about 1.09e13 on, which takes more than
    ``RESONANCE_SCAN_STEPS`` lattice rows.
    """
    return _modes_below(_checked_threshold(a, k, guard))


def negative_eigenvalue_bound(
    a: float, b: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> int:
    """Lattice count #{(l, m) : a*k^2 < pi^2*(l^2+m^2) < b*k^2}.

    This is the theoretical upper bound for the number of negative
    eigenvalues of the difference of the Neumann-to-Dirichlet operators
    at coefficients b and a, and equals
    ``positive_eigenvalue_count(b, k) - positive_eigenvalue_count(a, k)``.

    Both window ends use strict inequalities; an eigenvalue within
    ``guard`` of either end raises :class:`ResonanceError` rather than
    being silently included or excluded.  An end past the row budget
    raises ``ValueError`` as in :func:`positive_eigenvalue_count`.
    """
    lo = _checked_threshold(a, k, guard)
    hi = _checked_threshold(b, k, guard)
    if not a < b:
        raise ValueError(f"window requires a < b, got a={a}, b={b}")
    return _modes_below(hi) - _modes_below(lo)
