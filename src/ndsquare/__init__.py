"""Neumann-to-Dirichlet machinery for the constant-coefficient
Helmholtz equation on the unit square: closed-form matrix assembly
with its block eigensolver and truncation estimates (``nd_matrix``),
lattice eigenvalue counting (``spectrum``), an exact solution-operator
oracle (``solution_op``), and experiment drivers comparing thresholded
negative-eigenvalue counts with the theoretical dimension bound
(``experiments``).

The package namespace holds the names the README uses; everything else
is imported from the submodules.  Reference implementations that only
the tests use, such as the double-series oracle of the matrix, live in
the test suite, not here."""

from .experiments import sweep, verify_crossing
from .nd_matrix import assemble, load_matrix
from .nd_matrix import difference_truncation_error, truncation_error
from .solution_op import exact_negative_count
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
    "exact_negative_count",
    "load_matrix",
    "multiplicity",
    "negative_eigenvalue_bound",
    "positive_eigenvalue_count",
    "sweep",
    "truncation_error",
    "verify_crossing",
]
