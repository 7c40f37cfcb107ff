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
estimators never form the dense matrix:
:func:`~ndsquare.linalg.circulant_spectrum` splits the block-circulant
operator by the square's symmetry and the sign (-1)^i of the offset-1
block into four real symmetric eigenproblems of order about J/2 and
one of order J, all read off that block's parity blocks.  ``assemble``
interleaves the same blocks into the dense matrix, which remains the
test oracle for that solver and the content of the dump.  The closed
forms themselves are checked against a truncation of the underlying
double series over interior modes, which lives with the tests
(``tests/oracles.py``).

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
from typing import TextIO

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
    flat = c.ravel()
    plain = np.empty_like(flat)
    alternating = np.empty_like(flat)
    pos = flat > 0
    x = np.sqrt(flat[pos])
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
    s = np.sqrt(-flat[neg])
    sin_times_s = _map(math.sin, s) * s
    plain[neg] = -_map(math.cos, s) / sin_times_s
    alternating[neg] = -1.0 / sin_times_s
    plain = plain.reshape(c.shape)
    alternating = alternating.reshape(c.shape)
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
    ak2: float | np.ndarray, modes_per_side: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three distinct side blocks of the truncated matrix.

    ``ak2`` is a*k^2 of a validated coefficient, or an array of them,
    and ``modes_per_side`` is J.  Returns ``(same, opposite,
    block_next)``: the same-side (offset 0) and opposite-side (offset 2)
    diagonals as length-J vectors, and the J×J next-side (offset 1)
    block.  The previous-side (offset 3) block is ``block_next.T``.
    These are the only closed-form evaluations of the matrix;
    :func:`assemble` interleaves them and
    :func:`~ndsquare.linalg.circulant_spectrum` solves them without
    forming the dense matrix.

    The shape of an array ``ak2`` becomes the leading batch axes: P
    values give shapes (P, J), (P, J) and (P, J, J), member p bit for
    bit the blocks of ``ak2[p]`` alone.

    The next-side blocks are built in one buffer: the levels
    pi^2*(i^2+j^2) (integer sums up to 2J^2 are exact in float) are
    formed once per call in the first member's slot, the other members
    subtract their a*k^2 from it, and the first subtracts its own last.
    Then the numerator d_i*d_j, one of 1, sqrt(2) and sqrt(2)*sqrt(2),
    is divided in by region, and the sign (-1)^i applied last, since
    IEEE division is sign-symmetric.  No J×J temporary is made.
    """
    ak2 = np.asarray(ak2, dtype=float)
    members = ak2.reshape(-1, 1, 1)
    idx = np.arange(modes_per_side)
    sq = np.square(idx, dtype=float)

    block_next = np.empty((len(members), modes_per_side, modes_per_side))
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


def dumps_matrix(nd: NdMatrix) -> str:
    """A matrix in the plain-text dump format, as a string.

    First line: ``<size> <k> <a> closed_form``; then ``size`` rows of
    space-separated entries.  Reals carry 17 significant digits, so the
    dump round-trips exactly (:func:`load_matrix` parses it back).
    """
    n = nd.entries.shape[0]
    lines = [f"{n} {nd.params.k:.17g} {nd.params.a:.17g} closed_form"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in nd.entries]
    return "\n".join(lines) + "\n"


def load_matrix(stream: TextIO) -> NdMatrix:
    """Parse the dump format back into an :class:`NdMatrix`.

    The header does not record the writer's guard, so resonance is
    decided at the next float above ``math.ulp(a*k*k)``, which no guard
    a positive a*k^2 is written with falls below.
    """
    header = stream.readline().split()
    if len(header) != 4:
        raise ValueError(f"malformed dump header: {header!r}")
    n, k, a = int(header[0]), float(header[1]), float(header[2])
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
