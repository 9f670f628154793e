"""The transformation catalog: reciprocity, composition, inversion."""

import json

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import parse
from recipgas.symkernel.poly import QQ
from recipgas.transforms import (CATALOG, NotInvertible, OneParamFamily,
                                 ParamConstraintViolated, PointMap,
                                 ReciprocalMap, UnknownCatalogEntry, bateman,
                                 bateman_simplified, catalog, compose,
                                 identity_map, invert,
                                 involution_E1_reciprocal,
                                 involution_E2_reciprocal, involution_E1,
                                 involution_E2, map_from_dict, mu_minus,
                                 mu_plus, munk_prim, one_param_bateman,
                                 one_param_exp, one_param_linear,
                                 one_param_q13, reciprocal_map,
                                 theorem_map, verify_point_symmetry,
                                 verify_reciprocal)
from recipgas.transforms.catalog import entries


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def test_identity_passes(ctx):
    assert verify_reciprocal(identity_map(ctx)).passed


def test_bateman_symbolic_passes_both_reductions(ctx):
    T = bateman(ctx)
    assert verify_reciprocal(T, solve_for="x").passed
    assert verify_reciprocal(T, solve_for="y").passed


def test_bateman_requires_nonzero_scale(ctx):
    with pytest.raises(ParamConstraintViolated):
        bateman(ctx, 0, 0, 1, 0)
    with pytest.raises(ParamConstraintViolated):
        bateman(ctx, 1, 0, 0, 0)


def test_bateman_side_conditions_reported(ctx):
    rep = verify_reciprocal(bateman(ctx))
    conds = " ".join(rep.side_conditions)
    assert "rho" in conds and "!= 0" in conds


def test_one_parameter_families_symbolic(ctx):
    q12, q13 = parse(ctx, "q12"), parse(ctx, "q13")
    k1, k2 = parse(ctx, "k1"), parse(ctx, "k2")
    fams = [
        one_param_bateman(ctx, entropy="formal"),
        one_param_q13(ctx, q12=q12, q13=q13, entropy="formal"),
        one_param_exp(ctx, k1=k1, k2=k2, q12=q12, entropy="formal"),
        one_param_linear(ctx, k2=k2, q12=q12, entropy="formal"),
    ]
    for fam in fams:
        rep = verify_reciprocal(fam.map_sym)
        assert rep.passed, (fam.name, rep.to_text())


def test_families_are_identity_at_zero(ctx):
    assert one_param_bateman(ctx).map_at(0).is_identity()
    assert one_param_q13(ctx, q12=0, q13=1).map_at(0).is_identity()
    assert one_param_exp(ctx, k1=1, k2=1, q12=0).map_at(1).is_identity()
    assert one_param_linear(ctx, k2=1, q12=0).map_at(0).is_identity()


def test_family_member_at_rational_parameter_passes(ctx):
    fam = one_param_q13(ctx, q12=QQ(1, 3), q13=QQ(1, 2))
    T = fam.map_at(QQ(1, 8))
    assert verify_reciprocal(T).passed
    Ti = fam.map_at(QQ(-1, 8))
    assert compose(T, Ti).is_identity()


def test_family_inverse_is_the_group_inverse(ctx):
    # the attached inverse comes from the leaf law (T_eps^-1 = T_-eps);
    # composing it with the symbolic-leaf map must give the identity
    fams = [one_param_bateman(ctx),
            one_param_q13(ctx, q12=QQ(1, 3), q13=QQ(1, 2)),
            one_param_exp(ctx, k1=QQ(1, 2), k2=2),
            one_param_linear(ctx, k2=QQ(3, 2), q12=QQ(1, 3))]
    for fam in fams:
        T = fam.map_sym
        assert compose(T, invert(T)).is_identity(), fam.name


def test_formal_entropy_family_has_no_inverse(ctx):
    # with H = F(S) the member T_-eps is not the inverse, so none is
    # attached and invert refuses; the identity-entropy family keeps its
    # group inverse
    for build in (one_param_bateman, one_param_q13, one_param_exp,
                  one_param_linear):
        T = build(ctx, entropy="formal").map_sym
        assert T.inverse_fields is None, build.__name__
        with pytest.raises(NotInvertible):
            invert(T)
        T = build(ctx, entropy="identity").map_sym
        assert compose(T, invert(T)).is_identity(), build.__name__


def test_theorem_map_symbolic(ctx):
    for a11 in (1, -1):
        assert verify_reciprocal(theorem_map(ctx, a11=a11)).passed
    with pytest.raises(ParamConstraintViolated):
        theorem_map(ctx, a35=0)
    with pytest.raises(ParamConstraintViolated):
        theorem_map(ctx, alpha=0, beta=0)
    with pytest.raises(ParamConstraintViolated):
        theorem_map(ctx, a11=2)


def test_theorem_map_reduces_to_bateman(ctx):
    # alpha = 0, a11 = 1, psi constant = b1^2 b3 / 2 with
    # beta = 2/(b1 b3), a34 = -2 b2/(b1^2 b3), a35 = 2/(b1^2 b3),
    # a45 = -2 b4/(b1^2 b3), k = -b3/2 reproduces the four-parameter
    # pressure-inversion family exactly
    b1, b2, b3, b4 = (parse(ctx, n) for n in ("b1", "b2", "b3", "b4"))
    c = b1 ** 2 * b3
    T = theorem_map(ctx, alpha=0, beta=2 / (b1 * b3), k=-b3 / 2, a11=1,
                    a34=-2 * b2 / c, a35=2 / c, a45=-2 * b4 / c,
                    psi=c / 2, entropy="formal")
    B = bateman(ctx)
    for a, b in zip(T.components(), B.components()):
        assert (a - b).is_zero()


def test_mu_plus_passes_with_constant_form(ctx):
    T = mu_plus(ctx, a33=parse(ctx, "a33"), a54=parse(ctx, "a54"), a11=1,
                alpha=parse(ctx, "alpha"), beta=parse(ctx, "beta"))
    rep = verify_reciprocal(T)
    assert rep.passed
    assert rep.extras["form_matrix_constant"] is True
    rep2 = verify_reciprocal(bateman(ctx))
    assert rep2.extras["form_matrix_constant"] is False


def test_mu_minus_fails_with_witness(ctx):
    rep = verify_reciprocal(mu_minus(ctx, a33=1, a54=0, a11=1,
                                     alpha=1, beta=2))
    assert not rep.passed
    assert rep.witness is not None
    failing = {i.name for i in rep.items if not i.passed}
    assert failing & {"mass-flux", "entropy-flux"}


def test_broken_map_fails_on_closedness(ctx):
    T = bateman(ctx, 1, 2, 1, 3, entropy="identity")
    f = ((T.f[0][0], T.f[0][1]), (T.f[1][0], T.f[1][1] * parse(ctx, "p")))
    bad = reciprocal_map(ctx, T.R, T.U, T.V, T.P, T.H, f, name="broken")
    rep = verify_reciprocal(bad)
    assert not rep.passed
    assert any(i.name == "closedness-dy" and not i.passed for i in rep.items)


def test_point_symmetries(ctx):
    for pm in (munk_prim(ctx), involution_E1(ctx), involution_E2(ctx)):
        assert verify_point_symmetry(pm).passed
    ident = catalog(ctx, "identity")
    assert verify_reciprocal(ident).passed


def test_point_symmetry_negative_control(ctx):
    from recipgas.transforms import point_map
    bad = point_map(ctx, U=parse(ctx, "2*u"), name="u-doubling")
    assert not verify_point_symmetry(bad).passed


def test_involutions(ctx):
    E1 = involution_E1_reciprocal(ctx)
    E2 = involution_E2_reciprocal(ctx)
    assert compose(E1, E1).is_identity()
    assert compose(E2, E2).is_identity()
    assert verify_reciprocal(E1).passed
    assert verify_reciprocal(E2).passed


def test_compose_associative_symbolically(ctx):
    E1 = involution_E1_reciprocal(ctx)
    E2 = involution_E2_reciprocal(ctx)
    T = bateman(ctx, 1, 2, 1, 3, entropy="identity")
    left = compose(E1, compose(T, E2))
    right = compose(compose(E1, T), E2)
    for a, b in zip(left.components(), right.components()):
        assert (a - b).is_zero()


def test_invert_round_trips(ctx):
    T = bateman(ctx, 1, 2, 1, 3, entropy="identity")
    Ti = invert(T)
    assert compose(T, Ti).is_identity()
    assert compose(Ti, T).is_identity()
    # triangular inversion without the stored inverse agrees
    bare = reciprocal_map(ctx, T.R, T.U, T.V, T.P, T.H, T.f, name="bare")
    Tc = invert(bare)
    for k, e in Ti.field_map().items():
        assert (Tc.field_map()[k] - e).is_zero()


def test_invert_symbolic_bateman(ctx):
    T = bateman(ctx, entropy="identity")
    assert compose(T, invert(T)).is_identity()


def test_invert_requires_identity_entropy(ctx):
    T = bateman(ctx, 1, 0, 1, 0, entropy="formal")
    bare = reciprocal_map(ctx, T.R, T.U, T.V, T.P, T.H, T.f)
    with pytest.raises(NotInvertible):
        invert(bare)


def test_theorem_inverse(ctx):
    T = theorem_map(ctx, alpha=1, beta=2, k=1, a11=1, a34=QQ(1, 2),
                    a35=2, a45=3, psi=1, entropy="identity")
    assert compose(T, invert(T)).is_identity()
    Tm = mu_plus(ctx, a33=2, a54=QQ(1, 3), a11=-1, alpha=1, beta=1,
                 psi=1, entropy="identity")
    assert compose(Tm, invert(Tm)).is_identity()


def test_catalog_lookup(ctx):
    with pytest.raises(UnknownCatalogEntry):
        catalog(ctx, "nonsense")
    fam = catalog(ctx, "one_param_q13", q13=1)
    assert fam.map_at(0).is_identity()


def test_registry_entries_are_their_declared_kind(ctx):
    kinds = (ReciprocalMap, OneParamFamily, PointMap)
    assert sorted(n for k in kinds for n in entries(k)) == sorted(CATALOG)
    assert len(set(CATALOG.values())) == len(CATALOG)
    for kind in kinds:
        for name in entries(kind):
            assert isinstance(catalog(ctx, name, kind), kind), name


@pytest.mark.parametrize("name,kinds", [
    ("munk_prim", (ReciprocalMap, OneParamFamily)),
    ("E1", (PointMap,)),
    ("bateman", (OneParamFamily,)),
])
def test_wrong_kind_lists_the_entries_of_the_kind_needed(ctx, name, kinds):
    with pytest.raises(UnknownCatalogEntry) as exc:
        catalog(ctx, name, *kinds)
    assert str(exc.value).endswith(": " + ", ".join(entries(*kinds)))


def test_map_json_round_trip(ctx, tmp_path):
    T = bateman(ctx, 1, 2, 1, 3, entropy="identity")
    d = {"R": str(T.R), "U": str(T.U), "V": str(T.V), "P": str(T.P),
         "H": str(T.H), "form": [[str(c) for c in row] for row in T.f],
         "params": {k: str(v) for k, v in T.params.items()},
         "inverse": {k: str(v) for k, v in T.inverse_fields.items()}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    back = map_from_dict(ctx, json.loads(path.read_text()), name="bateman")
    for a, b in zip(back.components(), T.components()):
        assert (a - b).is_zero()
    assert back.inverse_fields is not None
    assert verify_reciprocal(back).passed


def test_simplified_form_matches_display(ctx):
    T = bateman_simplified(ctx, parse(ctx, "b3"), parse(ctx, "b4"))
    assert T.U == parse(ctx, "b3*0 + u/p")
    assert T.P == parse(ctx, "b4 - b3/p")
    assert T.f[0][0] == parse(ctx, "p+rho*v^2")
    assert T.f[1][1] == parse(ctx, "p+rho*u^2")
