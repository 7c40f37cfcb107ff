"""Truncated Neumann-to-Dirichlet matrix of the unit square and its spectrum.

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

The offset-0 and offset-2 diagonals are ``side_diagonals``, the
opposite-side sign (-1)^i included; the offset-1 entry is
(-1)^i * d_i * d_j / (pi^2*(i^2+j^2) - a*k^2), with the cosine
normalizers d_0 = 1 and d_j = sqrt(2) for j >= 1, and offset 3 is its
transpose.  All entries are exact values of the infinite matrix;
truncation keeps modes j < modes_per_side per side, giving a dense
symmetric matrix of size 4*modes_per_side.

``side_blocks`` evaluates the three distinct blocks once (the offset-0
and offset-2 diagonals and the offset-1 block; offset 3 is its
transpose), each as one array expression over the mode index, from
a*k^2 and J alone; an array of a*k^2 values gives a batch of blocks in
the same pass.  Both diagonals come from one pass of
:func:`side_diagonals`, bit for bit the scalar closed forms, and
``same_side_entry`` and ``opposite_side_entry`` are that pass at one
mode of a validated coefficient.  The experiments and the truncation
estimators never form the dense matrix: ``circulant_spectrum`` splits
the block-circulant operator of the side blocks, or of a difference of
two, by the square's symmetry and the sign (-1)^i of the offset-1
block into four real symmetric eigenproblems of order about J/2 and
one of order J, all built in that block's storage from its parity
blocks, which it overwrites.  It takes leading batch axes, so the
experiments solve a batch of grid points in the same five eigensolves.
``assemble`` interleaves the same blocks into the dense matrix, which
is the content of the dump, and ``symmetric_eigenvalues`` of it is the
test oracle for that solver.  The closed forms themselves are checked
against a truncation of the underlying double series over interior
modes, which lives with the tests (``tests/oracles.py``).

Two truncation-error estimators take their spectral norms from
``circulant_spectrum``.  ``truncation_error`` compares one assembly at
J modes per side against its truncation at J/2, zero-padded back to
full size; since s = 4j + p puts the low frequencies at the low
indices, that truncation is the upper-left 4*(J/2) corner and the
difference is the discarded border.  For a *single* operator the
border carries the slowly decaying same-side diagonal (~ 1/(pi*j)), so
the estimate decays only like 1/J.  ``difference_truncation_error``
makes the same comparison for the difference of two operators, where
the diagonals cancel to O(1/j^3); that is the error that matters when
counting negative eigenvalues of such differences, and it is several
orders of magnitude smaller.  Each estimator builds its own side
blocks and zeroes the kept corner in place.  ``ndsquare
truncation-check`` prints both.

Poles of the closed forms (vanishing denominators, cot/csc poles and
branch points) all correspond to a*k^2 hitting a Neumann eigenvalue
pi^2*(l^2+m^2).  Resonance is therefore decided where a coefficient
enters, by the package's one resonance gate (which
:class:`~ndsquare.spectrum.ProblemParams`, ``same_side_entry`` and
``opposite_side_entry`` apply), and a coefficient within the guard of a
level raises its :class:`~ndsquare.spectrum.ResonanceError` there.
``side_blocks`` and ``side_diagonals`` take a*k^2 of a validated
coefficient and only evaluate: none of its denominators is zero and
every entry is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .spectrum import (
    DEFAULT_GUARD,
    PI2,
    ProblemParams,
    _checked_threshold,
)

#: Threshold above which csch(x)/x is evaluated as 2*exp(-x)/x, since
#: sinh overflows near 710 (the entries decay like 1/x).
LARGE_ARG = 30.0

#: Distance |pi^2*(i^2 + m^2) - a*k^2| of a diagonal entry's nearest
#: level below which :func:`side_diagonals` splits off that level's pole.
NEAR_LEVEL_SWITCH = 1e-3

#: Relative asymmetry accepted by the symmetric eigensolver front-end.
SYMMETRY_CHECK_RTOL = 1e-10


def _map(fn, x: np.ndarray) -> np.ndarray:
    # a math function entry by entry, for bit-identity (see side_diagonals)
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def same_side_entry(
    i: int, a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> float:
    """Diagonal entry coupling boundary mode i of a side to itself.

    ``side_diagonals(i, a*k*k)[0]`` for a coefficient the resonance
    gate accepts; a resonant (a, k) raises its :class:`ResonanceError`.
    """
    return float(side_diagonals(i, _checked_threshold(a, k, guard))[0])


def opposite_side_entry(
    i: int, a: float, k: float = 1.0, guard: float = DEFAULT_GUARD
) -> float:
    """Diagonal entry coupling boundary mode i of a side to the opposite side.

    ``side_diagonals(i, a*k*k)[1]`` for a coefficient the resonance
    gate accepts, the sign (-1)^i included; a resonant (a, k) raises as
    in :func:`same_side_entry`.
    """
    return float(side_diagonals(i, _checked_threshold(a, k, guard))[1])


def side_diagonals(
    index: int | np.ndarray, ak2: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same-side and opposite-side diagonal entries of mode ``index``.

    ``index`` is the mode index i and ``ak2`` is a*k^2; they are
    numbers or arrays that broadcast together, and both results have
    the broadcast shape (0-d arrays for two numbers).  With
    c = ``PI2 * index * index - ak2`` and d_0 = 1, d_m = sqrt(2), the
    same-side entry is the mode series sum_m d_m^2 / (pi^2*m^2 + c):
    coth(sqrt(c))/sqrt(c) for c > 0 and -cot(sqrt(-c))/sqrt(-c) for
    c < 0.  The opposite-side entry is (-1)^i times the alternating
    series, with a factor (-1)^m in each term: csch(sqrt(c))/sqrt(c)
    for c > 0 and -csc(sqrt(-c))/sqrt(-c) for c < 0.  At index 0 the
    sign is +1, so ``side_diagonals(0, -c)`` gives both series at any c.

    The transcendental functions are Python's ``math`` functions mapped
    over the entries, and the square roots and the remaining products
    and quotients are numpy's, taken in the scalar order
    ``1/(tanh(x)*x)``, ``2*exp(-x)/x``, ``-cos(s)/(sin(s)*s)``.  IEEE
    arithmetic and ``sqrt`` are correctly rounded, so every entry is
    bit for bit the scalar closed form; numpy's own ``tanh``, ``sinh``
    and ``exp`` are not used because they differ from ``math`` in the
    last bit on some inputs.  The sign is applied last and 0.0 added,
    so an underflowed odd-i csch entry is 0.0, never -0.0, and a dump
    never prints "-0".

    An entry whose nearest level has L = ``PI2 * (i*i + m0*m0) - ak2``
    with |L| < ``NEAR_LEVEL_SWITCH`` is instead that level's pole
    d_m0^2 / L ((-1)^m0 * d_m0^2 / L in the alternating series) plus
    the regular rest from a short series.  L is rounded as the
    next-side block's denominators are, so every block puts the pole at
    one float; the closed forms put it an ulp or so away, and next to a
    level that alone can give the difference of two operators negative
    eigenvalues it does not have.

    This is pure evaluation.  The poles c = 0 and sqrt(-c) in pi*N are
    resonances of the coefficient, which the resonance gate has already
    refused; a validated coefficient gives finite values.
    """
    # both series in one pass: they share the square roots, the sines
    # and the near-level split
    c = np.asarray(PI2 * index * index - ak2, dtype=float)
    plain = np.empty_like(c)
    alternating = np.empty_like(c)
    pos = c > 0
    x = np.sqrt(c[pos])
    # tanh(x) rounds to 1.0 from about x = 19 on, so this is 1/x there
    # bit for bit and needs no large-x form
    plain[pos] = 1.0 / (_map(math.tanh, x) * x)
    # csch(x)/x as 2*exp(-x)/x past LARGE_ARG, where sinh would
    # overflow; it underflows harmlessly to 0 for very large x
    large = x > LARGE_ARG
    small = ~large
    csch = np.empty_like(x)
    csch[small] = 1.0 / (_map(math.sinh, x[small]) * x[small])
    csch[large] = 2.0 * _map(math.exp, -x[large]) / x[large]
    alternating[pos] = csch
    neg = ~pos
    s = np.sqrt(-c[neg])
    sin_times_s = _map(math.sin, s) * s
    plain[neg] = -_map(math.cos, s) / sin_times_s
    alternating[neg] = -1.0 / sin_times_s
    # the nearest level of row i is pi^2*(i^2 + m0^2) with m0 the integer
    # nearest sqrt(-c)/pi, and m0 = 0 for c >= 0
    m0 = np.rint(np.sqrt(np.where(c < 0.0, -c, 0.0)) / math.pi)
    level = PI2 * (np.square(index, dtype=float) + m0 * m0) - ak2
    near = np.abs(level) < NEAR_LEVEL_SWITCH
    if np.count_nonzero(near):
        m0 = m0[near]
        pole = np.where(m0 >= 1, 2.0, 1.0) / level[near]
        rest_plain, rest_alternating = _regular_rests(c[near], m0)
        plain[near] = pole + rest_plain
        alternating[near] = (
            np.where(m0 % 2 == 1, -pole, pole) + rest_alternating
        )
    sign = np.where(index % 2 == 0, 1.0, -1.0)
    return plain, sign * alternating + 0.0


def _regular_rests(c: np.ndarray, m0: np.ndarray) -> list[np.ndarray]:
    """The plain and alternating series at c less their m = m0 term.

    For c next to -pi^2*m0^2.  For m0 = 0 these are the Taylor series
    in c of coth(x)/x - 1/x^2 and csch(x)/x - 1/x^2, x^2 = c; for
    m0 >= 1 the Laurent series of -cot(s)/s and -csc(s)/s at pi*m0 less
    the pole, in t = s - pi*m0 with s^2 = -c.  The alternating rest
    carries the sign (-1)^m0 of its series.
    """
    upper = m0 >= 1
    s = np.sqrt(-c[upper])
    t = s - math.pi * m0[upper]
    t2 = t * t
    q = 1.0 / (s * (s + math.pi * m0[upper]))
    rests = []
    for sign, even, odd in (
        (1.0, (1 / 3, -1 / 45, 2 / 945), (1 / 3, 1 / 45, 2 / 945)),
        (-1.0, (-1 / 6, 7 / 360, -31 / 15120), (1 / 6, 7 / 360, 31 / 15120)),
    ):
        rest = even[0] + c * (even[1] + c * even[2])
        series = odd[0] + t2 * (odd[1] + t2 * odd[2])
        rest[upper] = q + sign * t * series / s
        rests.append(rest)
    rests[1][m0 % 2 == 1] *= -1.0
    return rests


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
    """

    entries: np.ndarray
    params: ProblemParams


def side_blocks(
    ak2: float | np.ndarray, modes_per_side: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three distinct side blocks of the truncated matrix.

    ``ak2`` is a*k^2 of a validated coefficient, or an array of them,
    and ``modes_per_side`` is J.  Returns ``(same, opposite,
    block_next)``: the same-side (offset 0) and opposite-side (offset 2)
    diagonals as length-J vectors, and the J×J next-side (offset 1)
    block.  The previous-side (offset 3) block is ``block_next.T``.
    These are the only closed-form evaluations of the matrix;
    :func:`assemble` interleaves them and :func:`circulant_spectrum`
    solves them without forming the dense matrix.

    The shape of an array ``ak2`` becomes the leading batch axes: P
    values give shapes (P, J), (P, J) and (P, J, J), member p bit for
    bit the blocks of ``ak2[p]`` alone.

    The next-side blocks are built in one buffer: the levels
    pi^2*(i^2+j^2) (integer sums up to 2J^2 are exact in float) are
    formed once per call in the first member's slot, the other members
    subtract their a*k^2 from it, and the first subtracts its own last.
    Then the numerator d_i*d_j, one of 1, sqrt(2) and sqrt(2)*sqrt(2),
    is divided in by region, and the sign (-1)^i applied last, since
    IEEE division is sign-symmetric.  No J×J temporary is made, and
    ``out`` of shape (P, J, J), if given, is that buffer.
    """
    ak2 = np.asarray(ak2, dtype=float)
    members = ak2.reshape(-1, 1, 1)
    idx = np.arange(modes_per_side)
    sq = np.square(idx, dtype=float)

    shape = (len(members), modes_per_side, modes_per_side)
    block_next = np.empty(shape) if out is None else out
    levels = block_next[:1]
    np.add(sq[:, None], sq, out=levels)
    levels *= PI2
    np.subtract(levels, members[1:], out=block_next[1:])
    levels -= members[:1]
    root2 = math.sqrt(2.0)
    for region, numerator in (
        (block_next[:, :1, :1], 1.0),
        (block_next[:, :1, 1:], root2),
        (block_next[:, 1:, :1], root2),
        (block_next[:, 1:, 1:], root2 * root2),
    ):
        np.divide(numerator, region, out=region)
    np.negative(block_next[:, 1::2], out=block_next[:, 1::2])
    same, opposite = side_diagonals(idx, ak2[..., None])
    return same, opposite, block_next.reshape(ak2.shape + block_next.shape[1:])


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
    same, opposite, block_next = side_blocks(
        params.a * params.k * params.k, j_modes
    )
    blocks = (np.diag(same), block_next, np.diag(opposite), block_next.T)
    out = np.empty((4 * j_modes, 4 * j_modes))
    for p in range(4):
        for r in range(4):
            out[p::4, r::4] = blocks[(r - p) % 4]
    return NdMatrix(entries=out, params=params)


def _require_symmetric(matrix: np.ndarray, op: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{op}: expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    defect = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if defect > SYMMETRY_CHECK_RTOL * scale:
        raise ValueError(
            f"{op}: matrix is not symmetric (max |A - A^T| = {defect:.3e}, "
            f"allowed {SYMMETRY_CHECK_RTOL * scale:.3e})"
        )
    return m


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted descending.

    Backed by LAPACK's symmetric solver (``numpy.linalg.eigvalsh``),
    which is backward stable; inputs failing the symmetry check raise
    ``ValueError``.
    """
    m = _require_symmetric(matrix, "symmetric_eigenvalues")
    return np.linalg.eigvalsh(m)[::-1]


def circulant_spectrum(
    same: np.ndarray, opposite: np.ndarray, block_next: np.ndarray
) -> np.ndarray:
    """Descending spectrum of the block-circulant matrix of the side blocks.

    ``same`` and ``opposite`` are the offset-0 and offset-2 diagonals
    and ``block_next`` the offset-1 block N, as returned by
    :func:`~ndsquare.nd_matrix.side_blocks` (or differences of them);
    the 4J eigenvalues are those of the dense matrix that
    :func:`~ndsquare.nd_matrix.assemble` would interleave from them.
    ``block_next`` is overwritten: each problem is built and solved in
    its storage.  ``same`` and ``opposite`` are only read.

    The blocks may carry leading batch axes: ``same`` and ``opposite``
    of shape (..., J) and ``block_next`` of shape (..., J, J) give the
    spectra of shape (..., 4J), each descending along the last axis and
    bit for bit the spectrum of that member alone.  A batch of P
    members costs the same five LAPACK calls as one member, on stacks
    of P problems.

    The 4-point DFT over the sides (Davis, *Circulant Matrices*, 1979)
    leaves diag(same + opposite) ± (N + N^T) and, twice, the coupling of
    x and y through N - N^T on side vectors (x, y, -x, -y).  Entry (i, j)
    of N carries the sign (-1)^i of a symmetric kernel, so N + N^T is 2N
    between modes of equal parity and 0 otherwise, and N - N^T the
    reverse.  The problems are therefore diag(same + opposite)[h]
    ± 2N[h, h] on the even and odd halves h, and R = diag(same -
    opposite) with R[0::2, 1::2] = -2N[0::2, 1::2] and R[1::2, 0::2] =
    2N[1::2, 0::2], counted twice: four eigensolves of order about J/2
    and one of order J instead of one of order 4J.  R keeps the
    interleaved mode order; a reordered R rounds differently in LAPACK.

    Each half h is doubled in place to c = 2N[h, h], made 0.0 + c and
    then 0.0 - (0.0 + c), which has the bits of 0.0 - c, with p ± c
    written on the diagonal, p = (same + opposite)[h]: the bits of
    diag(p) ± c, +0.0 where -c is -0.0 (at a zero of N, as in a zeroed
    border).  Every block is symmetric by construction, so no symmetry
    check is made.  The dense path, :func:`symmetric_eigenvalues` of the
    assembled matrix, is the test oracle for this one.
    """
    plus = same + opposite
    parts = []
    for half in (slice(0, None, 2), slice(1, None, 2)):
        block = block_next[..., half, half]
        diagonal = np.einsum("...ii->...i", block)
        block *= 2
        coupling = diagonal.copy()
        np.add(0.0, block, out=block)
        np.add(plus[..., half], coupling, out=diagonal)
        parts.append(np.linalg.eigvalsh(block))
        np.subtract(0.0, block, out=block)
        np.subtract(plus[..., half], coupling, out=diagonal)
        parts.append(np.linalg.eigvalsh(block))
    block_next[..., 0::2, 0::2] = block_next[..., 1::2, 1::2] = 0.0
    np.einsum("...ii->...i", block_next)[...] = same - opposite
    # -2N[0::2, 1::2] by the sign of N, as 2N[1::2, 0::2] transposed: a
    # zero entry of N (equal coefficients, zeroed border) stays +0.0
    block_next[..., 1::2, 0::2] *= 2
    block_next[..., 0::2, 1::2] = block_next[..., 1::2, 0::2].swapaxes(-1, -2)
    rotation = np.linalg.eigvalsh(block_next)
    parts += [rotation, rotation]
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)[..., ::-1]


def _border_norm(blocks: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    # spectral norm of the entries outside the upper-left 4*(J/2) corner;
    # zeroing the first J/2 modes of every side block (in place, so the
    # caller passes blocks of its own) keeps the matrix block-circulant,
    # so the block solver applies
    same, opposite, block_next = blocks
    modes_per_side = same.shape[-1]
    if modes_per_side % 2 != 0:
        raise ValueError(
            f"modes_per_side must be even to halve the truncation, "
            f"got {modes_per_side}"
        )
    half = modes_per_side // 2
    same[:half] = 0.0
    opposite[:half] = 0.0
    block_next[:half, :half] = 0.0
    eigs = circulant_spectrum(same, opposite, block_next)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def truncation_error(params: ProblemParams) -> float:
    """Spectral norm of the border lost when halving the truncation.

    Assembles the matrix at ``params.modes_per_side`` once and returns
    the spectral norm of everything outside its upper-left corner of
    half the mode count.  That corner is the assembly at half the mode
    count (the interleaved index order s = 4j + p puts the low
    frequencies there), so this is the norm of the difference to the
    half-size matrix zero-padded back to full size.  The border is
    block-circulant like the matrix, so its norm comes from
    :func:`circulant_spectrum` of the side blocks.

    Decreases like 1/modes_per_side: the dominant lost entries are the
    same-side diagonal values ~ 1/(pi*j) at j = modes_per_side/2.  See
    :func:`difference_truncation_error` for the much smaller error of
    operator differences.
    """
    return _border_norm(
        side_blocks(params.a * params.k * params.k, params.modes_per_side)
    )


def difference_truncation_error(
    a: float,
    b: float,
    k: float = 1.0,
    modes_per_side: int = 250,
    guard: float = DEFAULT_GUARD,
) -> float:
    """Truncation-error estimate for the operator difference at (b, a).

    Assembles the difference matrix at ``modes_per_side`` and compares
    it against its own upper-left quarter-size corner (modes below
    modes_per_side/2 per side) zero-padded back to full size, in the
    spectral norm.  The slowly decaying diagonals of the two operators
    cancel in the difference, so this decays like
    |b - a| / modes_per_side^3.
    """
    for coefficient in (b, a):
        ProblemParams(
            a=coefficient, k=k, modes_per_side=modes_per_side, guard=guard
        )
    blocks = side_blocks(b * k * k, modes_per_side)
    base = side_blocks(a * k * k, modes_per_side)
    for block, base_block in zip(blocks, base):
        block -= base_block
    return _border_norm(blocks)


def dump_lines(nd: NdMatrix) -> Iterator[str]:
    """A matrix in the plain-text dump format, line by line.

    First line: ``<size> <k> <a> closed_form``; then ``size`` rows of
    space-separated entries, one per line, each line with its newline.
    Reals carry 17 significant digits, so the dump round-trips exactly
    (:func:`load_matrix` parses it back).
    """
    n = nd.entries.shape[0]
    yield f"{n} {nd.params.k:.17g} {nd.params.a:.17g} closed_form\n"
    for row in nd.entries:
        yield " ".join(f"{v:.17g}" for v in row) + "\n"


def load_matrix(stream: TextIO) -> NdMatrix:
    """Parse the dump format back into an :class:`NdMatrix`.

    The header does not record the writer's guard, so resonance is
    decided at the next float above ``math.ulp(a*k*k)``, which no guard
    a positive a*k^2 is written with falls below: every dump written
    loads, bit for bit.  A header that names a method other than
    ``closed_form``, or a size that is not a positive multiple of 4 or
    does not match the rows, raises ``ValueError``.
    """
    header = stream.readline().split()
    if len(header) != 4:
        raise ValueError(f"malformed dump header: {header!r}")
    n, k, a = int(header[0]), float(header[1]), float(header[2])
    if n < 4:
        raise ValueError(f"matrix size {n} is below 4, one mode per side")
    if n % 4 != 0:
        raise ValueError(f"matrix size {n} is not divisible by 4")
    if header[3] != "closed_form":
        raise ValueError(f"unknown assembly method {header[3]!r}")
    entries = np.loadtxt(stream, ndmin=2)
    if entries.shape != (n, n):
        raise ValueError(
            f"expected a {n}x{n} matrix, got shape {entries.shape}"
        )
    ak2 = a * k * k
    finite = math.isfinite(ak2)  # else any guard lets ProblemParams name it
    guard = math.nextafter(math.ulp(ak2), math.inf) if finite else 1.0
    params = ProblemParams(a=a, k=k, modes_per_side=n // 4, guard=guard)
    return NdMatrix(entries=entries, params=params)
