"""recipgas: symbolic and numeric verification engine for reciprocal
transformations of the two-dimensional stationary gas dynamics equations.

Subpackages:
    symkernel   exact rational expressions, parser, sparse exact row reduction
    gasdyn      the governing system, manifold reduction, conserved forms
    liealg      generators with form slots, commutators, automorphisms
    prolong     prolongation, determining equations, polynomial ansatz
    transforms  the transformation catalog, verification, pushforward
    numerics    grid solutions, path integration, FD re-verification
    accept      the acceptance suite (also `recipgas paper-suite`)
"""

from .gasdyn import standard_context
from .liealg import equivalence_generator
from .prolong import equivalence_residuals
from .symkernel import Context, Expr, parse

__version__ = "0.1.0"

__all__ = ["Context", "Expr", "parse", "standard_context",
           "equivalence_generator", "equivalence_residuals", "__version__"]
