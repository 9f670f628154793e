"""Governing system, manifold reduction, conserved forms."""

import pytest

from recipgas.gasdyn import (ConservationFormParams, InvalidParams,
                             conservation_forms, conservation_law_forms,
                             main_derivatives, parametric_jets,
                             reduce_on_manifold, standard_context,
                             system_residuals, total_derivative)
from recipgas.symkernel import parse
from recipgas.symkernel.errors import SymkernelError


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def test_main_derivatives_solve_the_system(ctx):
    for F in system_residuals(ctx):
        assert reduce_on_manifold(F).is_zero()
        assert reduce_on_manifold(F, "y").is_zero()


def test_main_derivative_map_contents(ctx):
    md = main_derivatives(ctx)
    assert set(md) == {"p_x", "p_y", "S_x", "rho_x"}
    assert md["S_x"] == parse(ctx, "-(v/u)*S_y")
    assert set(parametric_jets("x")) == {"rho_y", "u_x", "u_y", "v_x",
                                         "v_y", "S_y"}


def test_reduction_is_projection(ctx):
    e = parse(ctx, "p_x*u + rho_x*S_x + v_y^2")
    once = reduce_on_manifold(e)
    assert (reduce_on_manifold(once) - once).is_zero()


def test_conservation_laws_closed(ctx):
    for w in conservation_law_forms(ctx):
        assert w.closedness_residual().is_zero()
        assert w.closedness_residual("y").is_zero()


def test_momentum_law_forms_match_divergence(ctx):
    # D_x(rho*u*v) + D_y(p + rho*v^2) reduces to zero, and the second law
    v = lambda n: parse(ctx, n)
    law1 = total_derivative(v("rho")*v("u")*v("v"), "x") + \
        total_derivative(v("p") + v("rho")*v("v")**2, "y")
    law2 = total_derivative(v("p") + v("rho")*v("u")**2, "x") + \
        total_derivative(v("rho")*v("u")*v("v"), "y")
    assert reduce_on_manifold(law1).is_zero()
    assert reduce_on_manifold(law2).is_zero()


def test_flux_forms_with_free_constants(ctx):
    params = ConservationFormParams.symbolic(ctx)
    s1, s2 = conservation_forms(ctx, params)
    assert s1.closedness_residual().is_zero()
    assert s2.closedness_residual().is_zero()
    assert s1.cx == parse(ctx, "q11*(p+q12+rho*v^2)")
    assert s1.cy == parse(ctx, "-q11*(rho*u*v+q13)")


def test_flux_form_params_validation(ctx):
    with pytest.raises(InvalidParams):
        ConservationFormParams.make(ctx, 0, 1)
    with pytest.raises(InvalidParams):
        ConservationFormParams.make(ctx, 1, 0)


def test_total_derivative_rejects_jets(ctx):
    with pytest.raises(SymkernelError):
        total_derivative(parse(ctx, "u_x"), "x")


def test_total_derivative_of_field_function(ctx):
    e = total_derivative(parse(ctx, "rho*u"), "x")
    assert e == parse(ctx, "rho_x*u + rho*u_x")


def test_state_equation_is_formal_and_unused(ctx):
    from recipgas.gasdyn import state_equation
    G = state_equation(ctx)
    assert G == parse(ctx, "G(rho, S)")
    for F in system_residuals(ctx):
        assert "G(rho,S)" not in F.free_variables()


def test_parameter_errors_defined_once():
    from recipgas import gasdyn, numerics, prolong, transforms
    assert numerics.InvalidParams is gasdyn.InvalidParams
    assert prolong.ParamConstraintViolated is gasdyn.ParamConstraintViolated
    assert transforms.ParamConstraintViolated is \
        gasdyn.ParamConstraintViolated
