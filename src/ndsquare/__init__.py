"""Neumann-to-Dirichlet machinery for the constant-coefficient
Helmholtz equation on the unit square: closed-form matrix assembly
with its block eigensolver and truncation estimates (``nd_matrix``),
lattice eigenvalue counting (``spectrum``), and experiment drivers
comparing thresholded negative-eigenvalue counts with the theoretical
dimension bound (``experiments``).

The package namespace holds the names the README uses; everything else
is imported from the submodules.  Reference implementations that only
the tests use, such as the double-series oracle of the matrix, live in
the test suite, not here.  ``ndsquare.solution_op``, the benchmark's
cross-check of ``negative_eigenvalue_bound``, stays there until it moves
into the tests; it is not imported here."""

from .experiments import sweep, verify_crossing
from .nd_matrix import assemble, load_matrix
from .nd_matrix import difference_truncation_error, truncation_error
from .spectrum import (
    ProblemParams,
    ResonanceError,
    multiplicity,
    negative_eigenvalue_bound,
    positive_eigenvalue_count,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemParams",
    "ResonanceError",
    "assemble",
    "difference_truncation_error",
    "load_matrix",
    "multiplicity",
    "negative_eigenvalue_bound",
    "positive_eigenvalue_count",
    "sweep",
    "truncation_error",
    "verify_crossing",
]
