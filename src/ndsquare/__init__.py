"""Neumann-to-Dirichlet machinery for the constant-coefficient
Helmholtz equation on the unit square: closed-form matrix assembly,
lattice eigenvalue counting, an exact solution-operator oracle, and
experiment drivers comparing measured negative-eigenvalue counts with
the theoretical dimension bound.

The package namespace holds the names the README uses; everything else
is imported from the submodules."""

from .experiments import sweep, verify_crossing
from .linalg import difference_truncation_error, truncation_error
from .nd_matrix import assemble, assemble_series_oracle, load_matrix
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
    "assemble_series_oracle",
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
