"""Governing system, manifold reduction, conserved forms."""

import pytest

from recipgas.gasdyn import (FIELDS, JETS, MAX_TERMS, ConservationFormParams,
                             InvalidParams, OneForm, conservation_law_forms,
                             flux_matrix, main_derivatives, parse_input,
                             reduce_on_manifold, standard_context,
                             system_residuals, total_derivative)
from recipgas.symkernel import parse
from recipgas.symkernel.errors import SymkernelError

from helpers import parametric_jets


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def test_main_derivatives_solve_the_system(ctx):
    for F in system_residuals(ctx):
        assert reduce_on_manifold([F])[0].is_zero()
        assert reduce_on_manifold([F], "y")[0].is_zero()


@pytest.mark.parametrize("text, terms", [
    ("rho*(u+v+p+rho+S)^6", 210),
    ("rho*(u+v+p+rho+S)^7", 330),
    ("rho/(u+v+p+rho+S)^7", 330),
    ("(u+v+p+rho+S)^7/(u+v+p+rho+S)^6", 5),
])
def test_parse_input_term_budget(ctx, text, terms):
    # the budget counts the terms of the numerator and of the denominator
    # after cancellation
    if terms <= MAX_TERMS:
        assert parse_input(ctx, text) == parse(ctx, text)
    else:
        with pytest.raises(InvalidParams, match="^%d terms" % terms):
            parse_input(ctx, text)


def test_main_derivative_map_contents(ctx):
    md = main_derivatives(ctx)
    assert set(md) == {"p_x", "p_y", "S_x", "rho_x"}
    assert md["S_x"] == parse(ctx, "-(v/u)*S_y")
    assert set(parametric_jets(ctx, "x")) == {"rho_y", "u_x", "u_y",
                                              "v_x", "v_y", "S_y"}


def test_reduction_is_projection(ctx):
    e = parse(ctx, "p_x*u + rho_x*S_x + v_y^2")
    once, = reduce_on_manifold([e])
    assert reduce_on_manifold([once]) == [once]


def test_conservation_laws_closed(ctx):
    for w in conservation_law_forms(ctx):
        d = w.exterior_derivative()
        assert reduce_on_manifold([d])[0].is_zero()
        assert reduce_on_manifold([d], "y")[0].is_zero()


def test_momentum_law_forms_match_divergence(ctx):
    # D_x(rho*u*v) + D_y(p + rho*v^2) reduces to zero, and the second law
    v = lambda n: parse(ctx, n)
    law1 = total_derivative(v("rho")*v("u")*v("v"), "x") + \
        total_derivative(v("p") + v("rho")*v("v")**2, "y")
    law2 = total_derivative(v("p") + v("rho")*v("u")**2, "x") + \
        total_derivative(v("rho")*v("u")*v("v"), "y")
    assert all(r.is_zero() for r in reduce_on_manifold([law1, law2]))


def test_flux_forms_with_free_constants(ctx):
    # S1 = q11*(A1 dx + B1 dy), S2 = q21*(A2 dx + B2 dy)
    params = ConservationFormParams.symbolic(ctx)
    (A1, B1), (A2, B2) = flux_matrix(params)
    s1 = OneForm(params.q11 * A1, params.q11 * B1)
    s2 = OneForm(params.q21 * A2, params.q21 * B2)
    assert all(r.is_zero() for r in reduce_on_manifold(
        [s1.exterior_derivative(), s2.exterior_derivative()]))
    assert s1.cx == parse(ctx, "q11*(p+q12+rho*v^2)")
    assert s1.cy == parse(ctx, "-q11*(rho*u*v+q13)")
    assert s2.cx == parse(ctx, "-q21*(rho*u*v+q23)")
    assert s2.cy == parse(ctx, "q21*(p+q22+rho*u^2)")


def test_flux_form_params_validation(ctx):
    with pytest.raises(InvalidParams):
        ConservationFormParams.make(ctx, 0, 1)
    with pytest.raises(InvalidParams):
        ConservationFormParams.make(ctx, 1, 0)


def test_total_derivative_rejects_jets(ctx):
    with pytest.raises(SymkernelError):
        total_derivative(parse(ctx, "u_x"), "x")
    with pytest.raises(SymkernelError, match=r"jet-dependent expression: "
                                             r"\['u_x', 'S_y'\]"):
        total_derivative(parse(ctx, "S_y*rho + u_x"), "y")


def test_total_derivative_of_field_function(ctx):
    e = total_derivative(parse(ctx, "rho*u"), "x")
    assert e == parse(ctx, "rho_x*u + rho*u_x")


def test_state_equation_is_formal_and_unused(ctx):
    # F1..F4 name the fields and their jets only: no pressure law G(rho, S)
    for F in system_residuals(ctx):
        assert F.free_variables() <= set(FIELDS + JETS)


def test_parameter_errors_defined_once():
    from recipgas import gasdyn, numerics, prolong, symkernel, transforms
    for module in (gasdyn, numerics, prolong, transforms):
        assert module.InvalidParams is symkernel.InvalidParams
