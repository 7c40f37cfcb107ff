"""Truncated Neumann-to-Dirichlet matrix of the unit square.

The Neumann-to-Dirichlet operator of the constant-coefficient Helmholtz
equation on (0,1)^2 is expanded in the orthonormal boundary basis

    g_{4j+p}  (j >= 0, p in {0,1,2,3})

of cosine modes, where p selects the side (0 = right, 1 = top,
2 = left, 3 = bottom, counterclockwise) and j the cosine frequency on
that side.  In this basis the operator has a block-circulant structure:
the entry at row 4i+p, column 4j+r depends on the sides only through
the offset (r - p) mod 4,

    offset 0 -> same side       (diagonal in i, j; coth/cot kernel)
    offset 1 -> next side ccw   (full block, sign (-1)^i)
    offset 2 -> opposite side   (diagonal in i, j; csch/csc kernel)
    offset 3 -> previous side   (full block, sign (-1)^j)

with the closed forms implemented by ``same_side_entry``,
``adjacent_next_entry``, ``opposite_side_entry`` and
``adjacent_prev_entry``.  All entries are exact values of the infinite
matrix; truncation keeps modes j < modes_per_side per side, giving a
dense symmetric matrix of size 4*modes_per_side.

``side_blocks`` evaluates the three distinct blocks once (the offset-0
and offset-2 diagonals and the offset-1 block; offset 3 is its
transpose).  The experiments and the truncation estimators never form
the dense matrix: :func:`~ndsquare.linalg.circulant_spectrum` splits
the block-circulant operator by the square's symmetry into four real
symmetric eigenproblems of order about J/2 and one of order J.
``assemble`` interleaves the same blocks into the dense matrix, which
remains the test oracle for that solver and the content of the dump.

``assemble_series_oracle`` recomputes every entry by truncating the
underlying double series over interior modes (l, m),

    sum_{l,m} I_p(i,l,m) * I_r(j,l,m) / (pi^2*(l^2+m^2) - a*k^2),

where I_p are the boundary overlap integrals (``overlap_integral``).
It converges only at rate O(1/series_cutoff) and exists purely to
validate the closed-form assembly.

Poles of the closed forms (vanishing denominators, cot/csc poles and
branch points) all correspond to a*k^2 hitting a Neumann eigenvalue
pi^2*(l^2+m^2); inputs within the guard of such a point raise
:class:`~ndsquare.spectrum.ResonanceError`.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .spectrum import (
    DEFAULT_GUARD,
    PI2,
    ModeIndex,
    ProblemParams,
    ResonanceError,
)

#: Threshold above which exp-based forms replace coth/csch to avoid
#: sinh overflow (sinh overflows near 710; entries decay like 1/x).
LARGE_ARG = 30.0

SIDE_RIGHT, SIDE_TOP, SIDE_LEFT, SIDE_BOTTOM = 0, 1, 2, 3


def normalizer(j: int) -> float:
    """Cosine-basis normalization constant: 1 for j = 0, sqrt(2) else."""
    if j < 0:
        raise ValueError(f"mode index must be nonnegative, got {j}")
    return 1.0 if j == 0 else math.sqrt(2.0)


def _coth_over(x: float) -> float:
    # coth(x)/x for x > 0; coth(x) - 1 < 1e-25 beyond LARGE_ARG
    if x > LARGE_ARG:
        return 1.0 / x
    return 1.0 / (math.tanh(x) * x)


def _csch_over(x: float) -> float:
    # csch(x)/x for x > 0; harmless underflow to 0 for very large x
    if x > LARGE_ARG:
        return 2.0 * math.exp(-x) / x
    return 1.0 / (math.sinh(x) * x)


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


def same_side_entry(
    i: int, a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> float:
    """Diagonal entry coupling boundary mode i of a side to itself.

    Returns coth(s)/s with s = sqrt(pi^2*i^2 - a*k^2) when
    pi^2*i^2 > a*k^2, and -cot(s)/s with s = sqrt(a*k^2 - pi^2*i^2)
    otherwise: the plain :func:`sum_formula` at c = pi^2*i^2 - a*k^2.
    Raises :class:`ResonanceError` within the guard of the branch point
    or of a cot pole (both are resonances).
    """
    return sum_formula("plain", PI2 * i * i - a * k * k, guard)


def opposite_side_entry(
    i: int, a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> float:
    """Diagonal entry coupling boundary mode i of a side to the opposite side.

    Returns (-1)^i * csch(s)/s for pi^2*i^2 > a*k^2 and
    -(-1)^i * csc(s)/s for pi^2*i^2 < a*k^2, s as in
    :func:`same_side_entry`: (-1)^i times the alternating
    :func:`sum_formula`.
    """
    sign = -1.0 if i % 2 else 1.0
    return sign * sum_formula("alternating", PI2 * i * i - a * k * k, guard)


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


def overlap_integral(
    p: int, j: int, mode: ModeIndex | tuple[int, int]
) -> float:
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


@dataclass(frozen=True)
class NdMatrix:
    """Dense symmetric truncated Neumann-to-Dirichlet matrix.

    Attributes
    ----------
    entries : np.ndarray
        Real matrix of shape (4J, 4J) with J = ``params.modes_per_side``.
        Row/column index s encodes boundary mode s = 4j + p with side
        p in {0,1,2,3} and frequency j in [0, J).
    params : ProblemParams
        The coefficient, wavenumber and truncation used for assembly.
    method : str
        ``"closed_form"`` or ``"series_oracle"``.
    series_cutoff : int | None
        Mode cutoff of the double series; None for closed-form assembly.
    """

    entries: np.ndarray
    params: ProblemParams
    method: str
    series_cutoff: int | None = None

    @property
    def method_label(self) -> str:
        if self.method == "series_oracle":
            return f"series_oracle({self.series_cutoff})"
        return self.method

    def max_symmetry_defect(self) -> float:
        """Max over (s, t) of |A[s,t] - A[t,s]| / max(1, |A[s,t]|)."""
        denom = np.maximum(1.0, np.abs(self.entries))
        return float(np.max(np.abs(self.entries - self.entries.T) / denom))


def side_blocks(
    params: ProblemParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three distinct side blocks of the truncated matrix.

    Returns ``(same, opposite, block_next)``: the same-side (offset 0)
    and opposite-side (offset 2) diagonals as length-J vectors, and the
    J×J next-side (offset 1) block.  The previous-side (offset 3) block
    is ``block_next.T``.  These are the only closed-form evaluations of
    the matrix; :func:`assemble` interleaves them and
    :func:`~ndsquare.linalg.circulant_spectrum` solves them without
    forming the dense matrix.
    """
    j_modes = params.modes_per_side
    a, k, guard = params.a, params.k, params.guard
    ak2 = a * k * k

    idx = np.arange(j_modes)
    d = np.where(idx == 0, 1.0, math.sqrt(2.0))
    sign = np.where(idx % 2 == 0, 1.0, -1.0)

    denom = PI2 * (idx[:, None] ** 2 + idx[None, :] ** 2) - ak2
    block_next = sign[:, None] * d[:, None] * d[None, :] / denom
    same = np.array([same_side_entry(i, a, k, guard) for i in idx])
    # + 0.0 turns the -0.0 of an underflowed odd-i csch entry into 0.0,
    # so a dump never prints "-0"
    opposite = np.array(
        [opposite_side_entry(i, a, k, guard) + 0.0 for i in idx]
    )
    return same, opposite, block_next


def assemble(params: ProblemParams) -> NdMatrix:
    """Assemble the dense truncated matrix from the closed-form blocks.

    The (4i+p, 4j+r) entry is the (i, j) entry of the block selected by
    the side offset (r - p) mod 4 (0 same side, 1 next ccw, 2 opposite,
    3 previous), taken from :func:`side_blocks`.  Entries are exact
    values of the infinite matrix, so truncations at different sizes
    agree on their common upper-left corner.

    The matrix is exactly symmetric by construction: the offset-3 block
    is the transpose of the offset-1 block and the offset-0 and
    offset-2 blocks are diagonal.  The experiments never form it; it is
    the oracle for the block solver and the source of the dump.
    """
    j_modes = params.modes_per_side
    same, opposite, block_next = side_blocks(params)
    blocks = (np.diag(same), block_next, np.diag(opposite), block_next.T)
    out = np.empty((4 * j_modes, 4 * j_modes))
    for p in range(4):
        for r in range(4):
            out[p::4, r::4] = blocks[(r - p) % 4]
    return NdMatrix(entries=out, params=params, method="closed_form")


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

    Validation oracle for :func:`assemble`: entrywise error is
    O(1/series_cutoff), dominated by the diagonal (same-side and
    opposite-side) entries whose series run over a full lattice line.
    Terms are accumulated with compensated summation (``math.fsum``).

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
    return NdMatrix(
        entries=out,
        params=params,
        method="series_oracle",
        series_cutoff=series_cutoff,
    )


def dump_matrix(nd: NdMatrix, stream: TextIO) -> None:
    """Write a matrix in the plain-text dump format.

    First line: ``<size> <k> <a> <method>``; then ``size`` rows of
    space-separated entries.  Reals carry 17 significant digits, so the
    dump round-trips exactly.
    """
    n = nd.entries.shape[0]
    stream.write(
        f"{n} {nd.params.k:.17g} {nd.params.a:.17g} {nd.method_label}\n"
    )
    for row in nd.entries:
        stream.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def dumps_matrix(nd: NdMatrix) -> str:
    """Dump format of :func:`dump_matrix` as a string."""
    buf = io.StringIO()
    dump_matrix(nd, buf)
    return buf.getvalue()


_METHOD_RE = re.compile(r"^(closed_form|series_oracle\((\d+)\))$")


def load_matrix(stream: TextIO) -> NdMatrix:
    """Parse the dump format back into an :class:`NdMatrix`."""
    header = stream.readline().split()
    if len(header) != 4:
        raise ValueError(f"malformed dump header: {header!r}")
    n, k, a = int(header[0]), float(header[1]), float(header[2])
    if n % 4 != 0:
        raise ValueError(f"matrix size {n} is not divisible by 4")
    match = _METHOD_RE.match(header[3])
    if match is None:
        raise ValueError(f"unknown assembly method {header[3]!r}")
    cutoff = int(match.group(2)) if match.group(2) else None
    entries = np.loadtxt(stream, ndmin=2)
    if entries.shape != (n, n):
        raise ValueError(
            f"expected a {n}x{n} matrix, got shape {entries.shape}"
        )
    params = ProblemParams(a=a, k=k, modes_per_side=n // 4)
    method = "series_oracle" if cutoff is not None else "closed_form"
    return NdMatrix(
        entries=entries, params=params, method=method, series_cutoff=cutoff
    )
