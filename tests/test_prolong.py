"""Prolongation, determining equations, splitting, the two-step method."""

import random

import pytest

from recipgas.gasdyn import ConservationFormParams, standard_context
from recipgas.liealg import (SingularMatrix, equivalence_generator,
                             generator, standard_basis, x_f, x_h)
from recipgas.prolong import (case_generators, determining_residuals,
                              equivalence_residuals,
                              form_coeffs_from_invariance, prolong)
from recipgas.symkernel import Expr, InvalidParams, VariableMismatch, parse
from recipgas.symkernel.poly import QQ

from helpers import monomial, split


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


@pytest.fixture(scope="module")
def basis(ctx):
    return standard_basis(ctx)


def test_prolong_constant_pressure_shift(ctx, basis):
    pro = prolong(basis[4])  # d_p
    assert all(e.is_zero() for e in pro.values())


def test_prolong_differential_scaling(ctx, basis):
    pro = prolong(basis[1])  # X2
    for f in ("rho", "u", "v", "p", "S"):
        for c in ("x", "y"):
            assert pro[(f, c)] == -parse(ctx, "%s_%s" % (f, c))


def test_prolong_zero_generator(ctx):
    from recipgas.liealg import zero_generator
    pro = prolong(zero_generator(ctx))
    assert all(e.is_zero() for e in pro.values())


def test_determining_basis_passes(ctx, basis):
    one = Expr.const(ctx, 1)
    for g in list(basis) + [x_h(ctx), x_f(ctx), x_h(ctx, one),
                            x_f(ctx, one)]:
        ds = determining_residuals(g)
        assert ds.is_zero(), ds.nonzero()
        assert determining_residuals(g, "y").is_zero()


def test_entropy_shift_passes(ctx):
    ds = determining_residuals(x_f(ctx, Expr.const(ctx, 1)))
    assert ds.is_zero()


def test_density_scaling_fails_in_momentum_slots(ctx):
    g = generator(ctx, zr=parse(ctx, "rho"))
    ds = determining_residuals(g)
    assert not ds.is_zero()
    failing = {t for t, _ in ds.nonzero()}
    assert failing == {"momentum-x", "momentum-y"}
    # the mass residual vanishes identically for this generator
    named = dict(ds.residuals)
    assert named["mass"].is_zero()
    # cross-check nonzero residual at a random rational jet point
    rng = random.Random(1)
    point = {n: QQ(rng.randint(1, 50), 16)
             for n in ("rho", "u", "v", "p", "S")}
    point.update({n: QQ(rng.randint(-20, 20), 8)
                  for n in ("rho_y", "u_x", "u_y", "v_x", "v_y", "S_y")})
    assert named["momentum-x"].eval_rational(point) != 0


def test_split_and_reconstruction(ctx):
    g = generator(ctx, zr=parse(ctx, "rho"))
    ds = determining_residuals(g)
    entries = split(ds)
    coeffs = {(t, k): c for t, k, c in entries}
    assert coeffs[("momentum-x", (("u_x", 1),))] == parse(ctx, "rho*u")
    assert coeffs[("momentum-x", (("u_y", 1),))] == parse(ctx, "rho*v")
    named = dict(ds.residuals)
    for tag in ("momentum-x", "momentum-y"):
        back = Expr.const(ctx, 0)
        for t, key, c in entries:
            if t == tag:
                back = back + c * monomial(ctx, key)
        assert (back - named[tag]).is_zero()


def test_split_of_valid_generator_is_empty(ctx, basis):
    assert split(determining_residuals(basis[2])) == []


def test_case_b_family(ctx, basis):
    q12, q13, k = parse(ctx, "q12"), parse(ctx, "q13"), parse(ctx, "k")
    params = ConservationFormParams.make(ctx, 1, 1, q12, q12, q13, -q13)
    g = case_generators("b", params, ctx, k=k)
    assert determining_residuals(g).is_zero()
    # b with k=1, q12=0, q13=1 has the rotation-coupled slots
    p1 = ConservationFormParams.make(ctx, 1, 1, 0, 0, 1, -1)
    g1 = case_generators("b", p1, ctx, k=1)
    expected = basis[2].scale(2) + basis[0] + basis[4]
    assert g1 == expected
    assert determining_residuals(g1).is_zero()


def test_case_c_family(ctx, basis):
    q12 = parse(ctx, "q12")
    params = ConservationFormParams.make(ctx, 1, 1, q12, q12, 0, 0)
    g = case_generators("c", params, ctx, k1=parse(ctx, "k1"),
                        k2=parse(ctx, "k2"))
    assert determining_residuals(g).is_zero()
    p0 = ConservationFormParams.make(ctx, 1, 1, 0, 0, 0, 0)
    g0 = case_generators("c", p0, ctx, k1=0, k2=1)
    assert g0 == basis[2].scale(2)


def test_case_constraint_violations(ctx):
    bad = ConservationFormParams.make(ctx, 1, 1, 0, 0, 1, 1)
    with pytest.raises(InvalidParams, match="branch b needs q23 = -q13"):
        case_generators("b", bad, ctx)
    bad2 = ConservationFormParams.make(ctx, 1, 1, 0, 0, 1, -1)
    with pytest.raises(InvalidParams, match="branch c needs q13 = q23 = 0"):
        case_generators("c", bad2, ctx)


def test_form_coeffs_zero_fields(ctx):
    params = ConservationFormParams.symbolic(ctx)
    z = Expr.const(ctx, 0)
    f1, f2 = form_coeffs_from_invariance(ctx, params, z, z, z, z)
    assert f1.cx.is_zero() and f1.cy.is_zero()
    assert f2.cx.is_zero() and f2.cy.is_zero()


def test_form_coeffs_reproduce_flow_matrix(ctx, basis):
    p0 = ConservationFormParams.make(ctx, 1, 1, 0, 0, 0, 0)
    x3f = basis[2].scale(2)
    zdx, zdy = form_coeffs_from_invariance(ctx, p0, x3f.zr, x3f.zu,
                                           x3f.zv, x3f.zp)
    assert zdx.cx == x3f.m11 and zdx.cy == x3f.m12
    assert zdy.cx == x3f.m21 and zdy.cy == x3f.m22


def test_form_coeffs_derived_generator_passes_determining(ctx, basis):
    # two-step method end to end for the rotation branch parameters
    q12, q13 = QQ(1, 3), QQ(1, 2)
    params = ConservationFormParams.make(ctx, 1, 1, q12, q12, q13, -q13)
    g = case_generators("b", params, ctx, k=1)
    zdx, zdy = form_coeffs_from_invariance(ctx, params, g.zr, g.zu, g.zv,
                                           g.zp)
    assert zdx.cx == g.m11 and zdx.cy == g.m12
    assert zdy.cx == g.m21 and zdy.cy == g.m22


def test_degenerate_delta(ctx):
    # no constant q makes the flux matrix singular; expression-valued
    # entries that zero its first row exercise the error path
    one, zero = Expr.const(ctx, 1), Expr.const(ctx, 0)
    params = ConservationFormParams(one, one, parse(ctx, "-p-rho*v^2"),
                                    zero, parse(ctx, "-rho*u*v"), zero)
    with pytest.raises(SingularMatrix,
                       match="flux coefficient matrix is singular"):
        form_coeffs_from_invariance(ctx, params, zero, zero, zero, zero)


def test_equivalence_generators_pass(ctx):
    x, y = parse(ctx, "x"), parse(ctx, "y")
    u, v, rho, p, S = (parse(ctx, n) for n in ("u", "v", "rho", "p", "S"))
    h = Expr.function(ctx, "h", S)
    F = Expr.function(ctx, "F", S)
    gens = [
        equivalence_generator(ctx, xi_x=1, label="shift-x"),
        equivalence_generator(ctx, xi_y=1, label="shift-y"),
        equivalence_generator(ctx, xi_x=-y, xi_y=x, zu=-v, zv=u,
                              label="rotation"),
        equivalence_generator(ctx, xi_x=x, xi_y=y, label="dilation"),
        equivalence_generator(ctx, zr=rho, zp=p, label="pressure-scale"),
        equivalence_generator(ctx, zp=1, label="pressure-shift"),
        equivalence_generator(ctx, zr=-2 * rho * h, zu=u * h, zv=v * h,
                              label="projective"),
        equivalence_generator(ctx, zs=F, label="entropy-relabel"),
    ]
    for g in gens:
        ds = equivalence_residuals(g)
        assert ds.is_zero(), (g.label, ds.nonzero())


def test_point_generators_are_reciprocal_generators(ctx):
    # the rotation and the dilation of the plane, prolonged to the forms,
    # are X1 and X2 of the reciprocal algebra
    x, y, u, v = (parse(ctx, n) for n in ("x", "y", "u", "v"))
    x1, x2 = standard_basis(ctx)[:2]
    assert equivalence_generator(ctx, xi_x=-y, xi_y=x, zu=-v, zv=u) == x1
    assert equivalence_generator(ctx, xi_x=x, xi_y=y) == x2
    with pytest.raises(InvalidParams):
        generator(ctx, zr="rho")
    with pytest.raises(VariableMismatch):
        equivalence_generator(ctx, xi_x=parse(standard_context(), "x"))


def test_equivalence_negative_control(ctx):
    g = equivalence_generator(ctx, zu=parse(ctx, "u"), label="u-scale")
    assert not equivalence_residuals(g).is_zero()
