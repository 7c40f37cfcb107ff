"""Symmetric eigenvalue utilities and truncation-error estimators.

Negative-eigenvalue counting follows the thresholded protocol used by
the experiments: an eigenvalue counts as negative only when it lies
below -delta, so that truncation and rounding noise around zero is
never mistaken for a genuine sign change.

``circulant_spectrum`` computes the spectrum of the block-circulant
Neumann-to-Dirichlet matrix, or of a difference of two, from its side
blocks by five small real symmetric eigensolves, each built from the
even and odd parity blocks of the adjacent-side block in that block's
own storage, which it overwrites.  It takes leading batch axes, so the
experiments solve a batch of grid points in the same five calls on
stacked problems; both estimators call it unbatched and take their
spectral norms from it.
``symmetric_eigenvalues`` of the dense matrix is its test oracle.

Two truncation-error estimators are provided.  ``truncation_error``
compares one assembled matrix at ``modes_per_side`` J against its
truncation at J/2, zero-padded back to full size; because smaller
frequencies occupy the lower indices (s = 4j + p), that truncation is
exactly the upper-left 4*(J/2) corner of the one assembly and the
difference is the discarded border.  For a *single* operator this
border carries the slowly decaying same-side diagonal (~ 1/(pi*j)), so
the estimate decays only like 1/modes_per_side.
``difference_truncation_error`` applies the same comparison to the
difference of two operators, where the diagonals cancel to O(1/j^3)
and the estimate is several orders of magnitude smaller; this is the
relevant quantity when counting negative eigenvalues of such
differences.  Each estimator builds the side blocks it needs and works
on them in place: it subtracts the base blocks for a difference and
zeroes the kept corner.  ``ndsquare truncation-check`` calls the two
estimators.
"""

from __future__ import annotations

import numpy as np

from .nd_matrix import side_blocks
from .spectrum import DEFAULT_GUARD, ProblemParams

#: Relative asymmetry accepted by the symmetric eigensolver front-end.
SYMMETRY_CHECK_RTOL = 1e-10

#: Default threshold below which -eigenvalue counts as negative.
DEFAULT_DELTA = 1e-5


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


def count_negative(eigenvalues, delta: float) -> int:
    """Number of eigenvalues strictly below -delta."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    eigs = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero(eigs < -delta))


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
