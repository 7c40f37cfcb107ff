"""Symmetric eigenvalue utilities and truncation-error estimators.

Negative-eigenvalue counting follows the thresholded protocol used by
the experiments: an eigenvalue counts as negative only when it lies
below -delta, so that truncation and rounding noise around zero is
never mistaken for a genuine sign change.

``circulant_spectrum`` computes the spectrum of the block-circulant
Neumann-to-Dirichlet matrix, or of a difference of two, from its side
blocks by five small real symmetric eigensolves; the experiments and
both estimators use it.  ``symmetric_eigenvalues`` of the dense matrix
is its test oracle.

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
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nd_matrix import side_blocks
from .spectrum import DEFAULT_GUARD, ProblemParams

#: Relative asymmetry accepted by the symmetric eigensolver front-end.
SYMMETRY_CHECK_RTOL = 1e-10

#: Default threshold below which -eigenvalue counts as negative.
DEFAULT_DELTA = 1e-5


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues of a symmetric matrix plus the negative count.

    ``negative_count`` is #{lambda : lambda < -tolerance} and
    ``eigenvalues`` is sorted descending with multiplicity.
    """

    eigenvalues: tuple[float, ...]
    tolerance: float
    negative_count: int


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


def spectrum_report(matrix: np.ndarray, delta: float) -> SpectrumReport:
    """Eigendecompose and count negatives under the given threshold."""
    eigs = symmetric_eigenvalues(matrix)
    return SpectrumReport(
        eigenvalues=tuple(float(v) for v in eigs),
        tolerance=delta,
        negative_count=count_negative(eigs, delta),
    )


def spectral_norm(matrix: np.ndarray) -> float:
    """Operator 2-norm of a symmetric matrix: max |eigenvalue|."""
    m = _require_symmetric(matrix, "spectral_norm")
    if m.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(m)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def circulant_spectrum(
    same: np.ndarray, opposite: np.ndarray, block_next: np.ndarray
) -> np.ndarray:
    """Descending spectrum of the block-circulant matrix of the side blocks.

    ``same`` and ``opposite`` are the offset-0 and offset-2 diagonals
    and ``block_next`` the offset-1 block N, as returned by
    :func:`~ndsquare.nd_matrix.side_blocks` (or differences of them);
    the 4J eigenvalues are those of the dense matrix that
    :func:`~ndsquare.nd_matrix.assemble` would interleave from them.

    The 4-point DFT over the side index splits that matrix into
    ``diag(same + opposite) ± (N + N^T)`` and, twice, the Hermitian
    ``diag(same - opposite) + i(N - N^T)``.  Entry (i, j) of N carries
    the sign (-1)^i, so N + N^T vanishes between modes of different
    parity and N - N^T between modes of equal parity: the first two
    split further into their even-i and odd-i halves, and conjugating
    the third by diag(i^(j mod 2)) makes it real symmetric.  That is
    four real symmetric eigensolves of order about J/2 and one of order
    J, instead of one of order 4J (Davis, *Circulant Matrices*, 1979).

    Every block is symmetric by construction, so no symmetry check is
    made.  The dense path, :func:`symmetric_eigenvalues` of the
    assembled matrix, is the test oracle for this one.
    """
    sym = block_next + block_next.T
    skew = block_next - block_next.T
    parity = np.arange(len(same)) % 2
    plus = same + opposite
    parts = []
    for half in (slice(0, None, 2), slice(1, None, 2)):
        diag = np.diag(plus[half])
        parts.append(np.linalg.eigvalsh(diag + sym[half, half]))
        parts.append(np.linalg.eigvalsh(diag - sym[half, half]))
    twist = parity[:, None] - parity[None, :]
    rotation = np.linalg.eigvalsh(np.diag(same - opposite) + twist * skew)
    parts += [rotation, rotation]
    return np.sort(np.concatenate(parts))[::-1]


def _border_norm(
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray], modes_per_side: int
) -> float:
    # spectral norm of the entries outside the upper-left 4*(J/2) corner;
    # zeroing the first J/2 modes of every side block (in place) keeps
    # the matrix block-circulant, so the block solver applies
    if modes_per_side % 2 != 0:
        raise ValueError(
            f"modes_per_side must be even to halve the truncation, "
            f"got {modes_per_side}"
        )
    half = modes_per_side // 2
    same, opposite, block_next = blocks
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
    return _border_norm(side_blocks(params), params.modes_per_side)


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
    blocks = side_blocks(
        ProblemParams(a=b, k=k, modes_per_side=modes_per_side, guard=guard)
    )
    base = side_blocks(
        ProblemParams(a=a, k=k, modes_per_side=modes_per_side, guard=guard)
    )
    for block, base_block in zip(blocks, base):
        block -= base_block
    return _border_norm(blocks, modes_per_side)
