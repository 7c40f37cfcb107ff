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
guard, or a scan of the levels within the guard that would take more
than ``RESONANCE_SCAN_STEPS`` lattice steps), ``is_resonant`` raises
``ValueError``; so does a count of more than that many lattice rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

PI2 = math.pi ** 2

#: Absolute tolerance, in units of a*k^2, inside which a coefficient is
#: treated as resonant.
DEFAULT_GUARD = 1e-9

#: Most lattice steps one lattice loop may take: in a resonance decision
#: each candidate level n costs the isqrt(n) + 1 steps of
#: :func:`multiplicity`, and a mode count costs one step per row l.
RESONANCE_SCAN_STEPS = 2 ** 20


class ResonanceError(ValueError):
    """Raised when a*k^2 is within the guard of a Neumann eigenvalue."""


def _is_positive_integer(value) -> bool:
    """True for an integer >= 1; ``operator.index`` refuses 2.5 or 4.0.

    A bool is refused too: True is no count, though it indexes as 1.
    """
    if isinstance(value, bool):
        return False
    try:
        return operator.index(value) >= 1
    except TypeError:
        return False


def _level(n) -> int:
    """``operator.index(n)`` if it is >= 0 and n no bool, else ValueError."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return n


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
        If k <= 0, modes_per_side is not an integer >= 1, or
        guard <= 0.
    """

    a: float
    k: float = 1.0
    modes_per_side: int = 100
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        if not _is_positive_integer(self.modes_per_side):
            raise ValueError(
                f"modes_per_side must be an integer >= 1, "
                f"got {self.modes_per_side!r}"
            )
        # is_resonant refuses a k or a guard that is not positive
        _checked_threshold(self.a, self.k, self.guard)

    @property
    def size(self) -> int:
        """Size 4*modes_per_side of the truncated matrix."""
        return 4 * self.modes_per_side


def multiplicity(n: int) -> int:
    """Number of ordered pairs (l, m) with l, m >= 0 and l^2 + m^2 = n.

    This is the multiplicity of pi^2*n as a Neumann eigenvalue of -Delta
    on the unit square (0 when n is not a sum of two squares).  Ordered
    pairs are counted, so (1, 2) and (2, 1) both contribute for n = 5.
    """
    n = _level(n)
    count = 0
    for l in range(math.isqrt(n) + 1):
        m = math.isqrt(n - l * l)
        if l * l + m * m == n:
            count += 1
    return count


def is_resonant(a: float, k: float, guard: float = DEFAULT_GUARD) -> bool:
    """Whether a*k^2 lies within ``guard`` of some pi^2*(l^2+m^2).

    Only integer levels n with |a*k^2 - pi^2*n| < guard can qualify, so
    the scan covers the few integers around a*k^2/pi^2.  Negative
    thresholds are never resonant unless a*k^2 is within the guard of
    zero (the l = m = 0 eigenvalue).  A non-finite a*k^2 raises
    ``ValueError``: it lies on neither side of any eigenvalue.  So does
    a guard that is not a positive finite number, and so does a positive
    a*k^2 whose float spacing ``math.ulp`` is at least ``guard`` (from
    2^23, about 8.4e6, at the default guard): there the rounding of
    a*k^2 and of pi^2*n alone reaches the guard, so resonance cannot be
    decided.  A scan whose candidate levels would take more than
    ``RESONANCE_SCAN_STEPS`` steps of :func:`multiplicity` in all raises
    ``ValueError`` too, before the step that would pass the limit; a
    scan within the limit answers as an unbounded one would.
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
    steps = 0
    for n in range(max(0, center - reach), center + reach + 1):
        if abs(target - PI2 * n) < guard:
            steps += math.isqrt(n) + 1
            if steps > RESONANCE_SCAN_STEPS:
                raise ValueError(
                    f"a*k^2 = {target!r} with guard {guard}: deciding "
                    f"resonance takes more than {RESONANCE_SCAN_STEPS} "
                    f"lattice steps"
                )
            if multiplicity(n) > 0:
                return True
    return False


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

    One settle finds the largest level n = top with ``PI2 * n < target``
    (``PI2 * n`` never decreases as the integer n grows); the count is
    then the integer row sum of isqrt(top - l^2) + 1 over l.  More than
    ``RESONANCE_SCAN_STEPS`` rows (from about 1.09e13) raise ValueError.
    """
    if target <= 0:
        return 0
    top = int(target / PI2)
    if math.isqrt(top) >= RESONANCE_SCAN_STEPS:
        raise ValueError(
            f"a*k^2 = {target!r}: counting the modes below it takes more "
            f"than {RESONANCE_SCAN_STEPS} lattice rows"
        )
    while PI2 * top >= target:
        top -= 1
    while PI2 * (top + 1) < target:
        top += 1
    return sum(math.isqrt(top - l * l) + 1 for l in range(math.isqrt(top) + 1))


def positive_eigenvalue_count(
    a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> int:
    """Number of positive Neumann eigenvalues of Delta + k^2*a.

    Equals #{(l, m) : pi^2*(l^2+m^2) < a*k^2}, counted with
    multiplicity.  Raises :class:`ResonanceError` when (a, k) is
    resonant, since the strict inequality is then meaningless.
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
    being silently included or excluded.
    """
    lo = _checked_threshold(a, k, guard)
    hi = _checked_threshold(b, k, guard)
    if not a < b:
        raise ValueError(f"window requires a < b, got a={a}, b={b}")
    return _modes_below(hi) - _modes_below(lo)
