"""Transformation catalog, verification, and generator pushforward."""

from ..gasdyn import ParamConstraintViolated
from .catalog import (CATALOG, bateman, bateman_simplified, catalog,
                      involution_E1, involution_E1_reciprocal, involution_E2,
                      involution_E2_reciprocal, identity_map, mu_minus,
                      mu_plus, munk_prim, one_param_bateman, one_param_exp,
                      one_param_linear, one_param_q13, theorem_map)
from .maps import (NotInvertible, OneParamFamily, PointMap, ReciprocalMap,
                   UnknownCatalogEntry, compose, invert, load_map,
                   map_from_dict, point_map, reciprocal_map)
from .pushforward import decompose, pushforward, pushforward_matrix
from .verify import (appendix_pde_residuals, center_pde_residuals,
                     composition_additivity, lie_equation_check,
                     transformed_law_residuals, verify_point_symmetry,
                     verify_reciprocal, witness_point)

__all__ = [
    "CATALOG", "catalog", "bateman", "bateman_simplified",
    "theorem_map", "one_param_bateman", "one_param_q13", "one_param_exp",
    "one_param_linear", "mu_plus", "mu_minus", "munk_prim",
    "involution_E1", "involution_E2", "involution_E1_reciprocal",
    "involution_E2_reciprocal", "identity_map",
    "ReciprocalMap", "PointMap", "OneParamFamily", "compose", "invert",
    "reciprocal_map", "point_map", "map_from_dict", "load_map",
    "NotInvertible", "UnknownCatalogEntry", "ParamConstraintViolated",
    "pushforward", "decompose", "pushforward_matrix",
    "verify_reciprocal", "verify_point_symmetry", "lie_equation_check",
    "composition_additivity", "appendix_pde_residuals",
    "center_pde_residuals", "transformed_law_residuals", "witness_point",
]
