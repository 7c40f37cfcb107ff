"""Reference implementations that the tests compare the package against.

None of these runs in the package; each is an independent way to obtain
a value the package computes, or a helper only the tests need.

``assemble_series_oracle`` recomputes every entry of the truncated
Neumann-to-Dirichlet matrix by truncating the underlying double series
over interior modes (l, m),

    sum_{l,m} I_p(i,l,m) * I_r(j,l,m) / (pi^2*(l^2+m^2) - a*k^2),

where I_p are the boundary overlap integrals (``overlap_integral``).
It converges only at rate O(1/series_cutoff) and exists purely to
validate the closed-form assembly.
"""

import math

import numpy as np

from ndsquare.nd_matrix import NdMatrix, _require_symmetric
from ndsquare.spectrum import PI2, ProblemParams, multiplicity

SIDE_RIGHT, SIDE_TOP, SIDE_LEFT, SIDE_BOTTOM = 0, 1, 2, 3


def normalizer(j: int) -> float:
    """Cosine-basis normalization constant: 1 for j = 0, sqrt(2) else."""
    if j < 0:
        raise ValueError(f"mode index must be nonnegative, got {j}")
    return 1.0 if j == 0 else math.sqrt(2.0)


def overlap_integral(p: int, j: int, mode: tuple[int, int]) -> float:
    """Boundary overlap of basis function (side p, frequency j) with mode (l, m).

    The four closed forms, one per side:

        p=0 (right):  (-1)^l * d_l      if j == m else 0
        p=1 (top):    (-1)^(m+j) * d_m  if j == l else 0
        p=2 (left):   (-1)^j * d_l      if j == m else 0
        p=3 (bottom): d_m               if j == l else 0
    """
    if p not in (0, 1, 2, 3):
        raise ValueError(f"side index must be in 0..3, got {p}")
    if j < 0:
        raise ValueError(f"boundary mode index must be nonnegative, got {j}")
    l, m = mode
    if l < 0 or m < 0:
        raise ValueError(f"mode indices must be nonnegative, got ({l}, {m})")
    if p == SIDE_RIGHT:
        return ((-1.0) ** l) * normalizer(l) if j == m else 0.0
    if p == SIDE_TOP:
        return ((-1.0) ** (m + j)) * normalizer(m) if j == l else 0.0
    if p == SIDE_LEFT:
        return ((-1.0) ** j) * normalizer(l) if j == m else 0.0
    return normalizer(m) if j == l else 0.0


def _series_entry(
    i: int, p: int, j: int, r: int, a: float, k: float, cutoff: int
) -> float:
    """One entry of the truncated double series.

    The overlap integrals vanish off a line (or point) of the (l, m)
    lattice, so only the exactly-nonzero terms are enumerated; the value
    is identical to the full double loop over l, m <= cutoff.
    """
    ak2 = a * k * k
    p_pins_m = p in (SIDE_RIGHT, SIDE_LEFT)
    r_pins_m = r in (SIDE_RIGHT, SIDE_LEFT)
    if p_pins_m and r_pins_m:
        if i != j:
            return 0.0
        points = [(l, i) for l in range(cutoff + 1)]
    elif not p_pins_m and not r_pins_m:
        if i != j:
            return 0.0
        points = [(i, m) for m in range(cutoff + 1)]
    elif p_pins_m:
        points = [(j, i)]
    else:
        points = [(i, j)]
    return math.fsum(
        overlap_integral(p, i, (l, m))
        * overlap_integral(r, j, (l, m))
        / (PI2 * (l * l + m * m) - ak2)
        for (l, m) in points
    )


def assemble_series_oracle(
    params: ProblemParams, series_cutoff: int
) -> NdMatrix:
    """Assemble the matrix by truncating the double series over (l, m).

    Validation oracle for :func:`ndsquare.nd_matrix.assemble`: entrywise
    error is O(1/series_cutoff), dominated by the diagonal (same-side
    and opposite-side) entries whose series run over a full lattice
    line.  Terms are accumulated with compensated summation
    (``math.fsum``).

    ``series_cutoff`` must be at least ``params.modes_per_side`` so all
    retained boundary modes find their pinned lattice lines.
    """
    j_modes = params.modes_per_side
    if series_cutoff < max(1, j_modes):
        raise ValueError(
            f"series_cutoff must be >= modes_per_side = {j_modes}, "
            f"got {series_cutoff}"
        )
    n = 4 * j_modes
    out = np.zeros((n, n))
    for i in range(j_modes):
        for p in range(4):
            for j in range(j_modes):
                for r in range(4):
                    s, t = 4 * i + p, 4 * j + r
                    if t < s:
                        continue
                    out[s, t] = _series_entry(
                        i, p, j, r, params.a, params.k, series_cutoff
                    )
    out = np.triu(out) + np.triu(out, 1).T
    return NdMatrix(entries=out, params=params)


def max_symmetry_defect(matrix: np.ndarray) -> float:
    """Max over (s, t) of |A[s,t] - A[t,s]| / max(1, |A[s,t]|)."""
    denom = np.maximum(1.0, np.abs(matrix))
    return float(np.max(np.abs(matrix - matrix.T) / denom))


def neumann_eigenvalue(mode: tuple[int, int]) -> float:
    """Neumann eigenvalue pi^2*(l^2 + m^2) of -Delta for the given mode."""
    l, m = mode
    if l < 0 or m < 0:
        raise ValueError(f"mode indices must be nonnegative, got ({l}, {m})")
    return PI2 * (l * l + m * m)


def lattice_count_below(target: float) -> int:
    """#{(l, m) : PI2 * (l*l + m*m) < target}, pair by pair.

    The brute-force oracle of the lattice counts: every pair (l, m) in a
    square a little past the radius sqrt(target)/pi is compared with the
    target on its own, through the same float level ``PI2 * n``.
    """
    if target <= 0:
        return 0
    radius = math.isqrt(int(target / PI2)) + 3
    return sum(
        1
        for l in range(radius)
        for m in range(radius)
        if PI2 * (l * l + m * m) < target
    )


def brute_force_resonant(target: float, guard: float) -> bool:
    """Whether some pair (l, m) has abs(target - PI2 * n) < guard.

    The brute-force oracle of the resonance gate: every pair with
    l, m <= isqrt(top), top a level just past (target + guard)/pi^2, is
    tested on its own with the gate's float test at n = l*l + m*m.
    """
    top = max(0, int((target + guard) / PI2) + 2)
    side = math.isqrt(top) + 1
    return any(
        abs(target - PI2 * (l * l + m * m)) < guard
        for l in range(side)
        for m in range(side)
    )


def construct_even_multiplicity(target: int) -> int:
    """Level n = 5**(target-1) whose multiplicity is exactly ``target``.

    For even ``target`` >= 2 the level 5**(target-1) has precisely
    ``target`` ordered representations as a sum of two squares, so
    pi^2 * 5**(target-1) is a Neumann eigenvalue of that multiplicity.
    The result is re-validated against :func:`multiplicity` before
    being returned.
    """
    if target < 2 or target % 2 != 0:
        raise ValueError(
            f"target multiplicity must be an even integer >= 2, got {target}"
        )
    n = 5 ** (target - 1)
    actual = multiplicity(n)
    if actual != target:
        raise AssertionError(
            f"constructed level {n} has multiplicity {actual}, "
            f"expected {target}"
        )
    return n


def spectral_norm(matrix: np.ndarray) -> float:
    """Operator 2-norm of a symmetric matrix: max |eigenvalue|."""
    m = _require_symmetric(matrix, "spectral_norm")
    if m.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(m)
    return float(max(abs(eigs[0]), abs(eigs[-1])))
