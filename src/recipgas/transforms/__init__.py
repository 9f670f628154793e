"""Transformation catalog, verification, and generator pushforward."""

from ..symkernel.errors import InvalidParams
from .catalog import (CATALOG, bateman, bateman_simplified, catalog,
                      involution_E1_reciprocal, involution_E2_reciprocal,
                      identity_map, mu_minus, mu_plus, munk_prim,
                      one_param_bateman, one_param_exp, one_param_linear,
                      one_param_q13, theorem_map)
from .maps import (NotInvertible, OneParamFamily, ReciprocalMap,
                   UnknownCatalogEntry, compose, invert, load_map,
                   map_from_dict, reciprocal_map)
from .pushforward import decompose, pushforward, pushforward_matrix
from .verify import (appendix_pde_residuals, center_pde_residuals,
                     composition_additivity, exact_additivity_residuals,
                     exact_lie_residuals, lie_equation_check,
                     transformed_law_residuals, verify_automorphism_solution,
                     verify_flow, verify_point_symmetry, verify_reciprocal,
                     witness_point)

__all__ = [
    "CATALOG", "catalog", "bateman", "bateman_simplified",
    "theorem_map", "one_param_bateman", "one_param_q13", "one_param_exp",
    "one_param_linear", "mu_plus", "mu_minus", "munk_prim",
    "involution_E1_reciprocal", "involution_E2_reciprocal", "identity_map",
    "ReciprocalMap", "OneParamFamily", "compose", "invert",
    "reciprocal_map", "map_from_dict", "load_map",
    "NotInvertible", "UnknownCatalogEntry", "InvalidParams",
    "pushforward", "decompose", "pushforward_matrix",
    "verify_reciprocal", "verify_point_symmetry", "lie_equation_check",
    "composition_additivity", "exact_lie_residuals",
    "exact_additivity_residuals", "verify_flow", "appendix_pde_residuals",
    "center_pde_residuals", "transformed_law_residuals", "witness_point",
    "verify_automorphism_solution",
]
