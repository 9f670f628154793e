"""The transformation catalog: reciprocity, composition, inversion."""

import inspect
import json

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import parse
from recipgas.symkernel.poly import QQ
from recipgas.transforms import (CATALOG, InvalidParams, NotInvertible,
                                 OneParamFamily, ReciprocalMap,
                                 UnknownCatalogEntry, bateman,
                                 bateman_simplified, catalog, compose,
                                 identity_map, invert,
                                 involution_E1_reciprocal,
                                 involution_E2_reciprocal, map_from_dict,
                                 mu_minus, mu_plus, munk_prim,
                                 one_param_bateman, one_param_exp,
                                 one_param_linear, one_param_q13,
                                 reciprocal_map, theorem_map,
                                 verify_point_symmetry, verify_reciprocal)
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
    with pytest.raises(InvalidParams, match=r"b1\*b3 != 0"):
        bateman(ctx, 0, 0, 1, 0)
    with pytest.raises(InvalidParams, match=r"b1\*b3 != 0"):
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


# The leaf of the group inverse T_-eps as a function of the leaf t of
# T_eps, by leaf law: the oracle for the solved inverse of a family.
GROUP_INVERSE_LEAF = {"linear": lambda t: -t, "tan": lambda t: -t,
                      "exp": lambda t: 1 / t}


def test_family_inverse_is_the_group_inverse(ctx):
    # the solved inverse of the symbolic-leaf map is the member at the
    # group-inverse leaf (T_eps^-1 = T_-eps), form included, and composes
    # with the map to the identity
    fams = [one_param_bateman(ctx),
            one_param_q13(ctx, q12=QQ(1, 3), q13=QQ(1, 2)),
            one_param_q13(ctx, q12=parse(ctx, "q12"), q13=parse(ctx, "q13")),
            one_param_exp(ctx, k1=QQ(1, 2), k2=2),
            one_param_linear(ctx, k2=QQ(3, 2), q12=QQ(1, 3))]
    for fam in fams:
        T = fam.map_sym
        Ti = invert(T)
        leaf = GROUP_INVERSE_LEAF[fam.leaf](parse(ctx, fam.symbol))
        assert Ti.components() == fam.map_at(leaf).components(), fam.name
        assert compose(T, Ti).is_identity(), fam.name


def test_formal_entropy_family_has_no_inverse(ctx):
    # with H = F(S) the member T_-eps is not the inverse: invert refuses;
    # the identity-entropy family inverts
    for build in (one_param_bateman, one_param_q13, one_param_exp,
                  one_param_linear):
        T = build(ctx, entropy="formal").map_sym
        with pytest.raises(NotInvertible):
            invert(T)
        T = build(ctx, entropy="identity").map_sym
        assert compose(T, invert(T)).is_identity(), build.__name__


@pytest.mark.parametrize("name", entries(ReciprocalMap, OneParamFamily))
def test_double_inverse_is_the_map(ctx, name):
    # invert solves every inverse, that of an inverse included: it gives
    # back the nine components of the map; mu_minus is not invertible
    build = CATALOG[name]
    kw = {"entropy": "identity"} if "entropy" in \
        inspect.signature(build).parameters else {}
    T = build(ctx, **kw)
    T = T.map_sym if isinstance(T, OneParamFamily) else T
    if name == "mu_minus":
        with pytest.raises(NotInvertible):
            invert(T)
        return
    assert invert(invert(T)).components() == T.components()


def test_equal_maps_hash_equal(ctx):
    T, T2 = bateman(ctx), bateman(ctx)
    assert T is not T2 and T == T2 and hash(T) == hash(T2)
    assert len({T, T2}) == 1


def test_theorem_map_symbolic(ctx):
    for a11 in (1, -1):
        assert verify_reciprocal(theorem_map(ctx, a11=a11)).passed
    with pytest.raises(InvalidParams, match="a35 != 0"):
        theorem_map(ctx, a35=0)
    with pytest.raises(InvalidParams, match=r"alpha\^2 \+ beta\^2 != 0"):
        theorem_map(ctx, alpha=0, beta=0)
    with pytest.raises(InvalidParams, match=r"a11\^2 = 1"):
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
    for pm in (munk_prim(ctx), involution_E1_reciprocal(ctx),
               involution_E2_reciprocal(ctx)):
        assert verify_point_symmetry(pm).passed
    ident = catalog(ctx, "identity")
    assert verify_reciprocal(ident).passed


def test_point_symmetry_negative_control(ctx):
    # u -> 2u fails both criteria of test_point_and_reciprocal_criteria_agree
    rho, u, v, p, S = (parse(ctx, n) for n in ("rho", "u", "v", "p", "S"))
    bad = reciprocal_map(ctx, rho, 2 * u, v, p, S, ((1, 0), (0, 1)),
                         name="u-doubling")
    assert not verify_point_symmetry(bad).passed
    assert not verify_reciprocal(bad).passed


def test_singular_jacobian_fails_without_residuals(ctx):
    # with det J = 0 the transformed jets are undefined: the report has
    # the failing Jacobian item alone, and the map's side conditions
    rho, u, v, p, S = (parse(ctx, n) for n in ("rho", "u", "v", "p", "S"))
    flat = reciprocal_map(ctx, 1 / rho, u, v, p, S, ((1, 0), (1, 0)),
                          name="flat")
    rep = verify_point_symmetry(flat)
    assert [(i.name, i.passed) for i in rep.items] == [
        ("coordinate-jacobian-nonsingular", False)]
    assert rep.side_conditions == ["rho != 0"] and rep.witness is None


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_point_and_reciprocal_criteria_agree(ctx, name):
    # two independent criteria: the transformed system vanishes on the
    # manifold (the form matrix read as the coordinate Jacobian), and the
    # pulled-back conserved forms are closed; both hold where the map's
    # denominators do not vanish
    T = catalog(ctx, name)
    T = T.map_sym if isinstance(T, OneParamFamily) else T
    point, recip = verify_point_symmetry(T), verify_reciprocal(T)
    assert point.passed == recip.passed
    assert point.side_conditions == recip.side_conditions


def test_munk_prim_is_mu_plus_at_identity_parameters(ctx):
    assert munk_prim(ctx).components() == \
        mu_plus(ctx, entropy="identity").components()


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
    assert Ti.field_map() == bateman_inverse(
        ctx, _params(ctx, b1=1, b2=2, b3=1, b4=3))


# The closed-form inverses of the catalog's maps with entropy S -> S, as
# the catalog typed them before invert solved them: reference data for the
# solver.  params are the map's own, psi the value of psi(S).

def _params(ctx, **values):
    """The parameters of a map as Exprs: numbers, or names that stay
    symbolic."""
    return {k: parse(ctx, str(v)) for k, v in values.items()}


def bateman_inverse(ctx, params):
    """The paper's inverse of the pressure-inversion family."""
    b1, b2, b3, b4 = (params[n] for n in ("b1", "b2", "b3", "b4"))
    rho, u, v, p, S = (parse(ctx, n) for n in ("rho", "u", "v", "p", "S"))
    wp = b1 ** 2 * b3 / (b4 - p)
    return {"rho": rho * (b4 - p) / (b3 * (b4 - p - rho * (u ** 2 + v ** 2))),
            "u": u * wp / b1, "v": v * wp / b1, "p": wp - b2, "S": S}


def theorem_inverse(ctx, params, psi):
    alpha, beta, a11, a34, a35, a45 = (
        params[n] for n in ("alpha", "beta", "a11", "a34", "a35", "a45"))
    rho, u, v, p, S = (parse(ctx, n) for n in ("rho", "u", "v", "p", "S"))
    ab2 = alpha ** 2 + beta ** 2
    pg = -2 / (a35 * p + a45)
    ui = pg * (beta * u - alpha * a11 * v) / (psi * ab2)
    vi = pg * (alpha * u + beta * a11 * v) / (psi * ab2)
    c2 = psi ** 2 * a35 * ab2
    return {"rho": rho * c2 * pg / (2 * pg - rho * c2 * (ui ** 2 + vi ** 2)),
            "u": ui, "v": vi, "p": a34 / a35 + pg, "S": S}


def mu_plus_inverse(ctx, params, psi):
    a33, a54, a11, alpha, beta = (
        params[n] for n in ("a33", "a54", "a11", "alpha", "beta"))
    rho, u, v, p, S = (parse(ctx, n) for n in ("rho", "u", "v", "p", "S"))
    ab2 = alpha ** 2 + beta ** 2
    return {"rho": a33 * psi ** 2 * ab2 * rho,
            "u": (alpha * u - beta * a11 * v) / (psi * ab2),
            "v": (beta * u + alpha * a11 * v) / (psi * ab2),
            "p": a33 * (p + a54), "S": S}


def test_solved_inverse_matches_the_typed_closed_forms(ctx):
    sym = lambda n: parse(ctx, n)
    psi = parse(ctx, "psi(S)")
    b_sym = dict(b1="b1", b2="b2", b3="b3", b4="b4")
    th_sym = dict(alpha="alpha", beta="beta", a34="a34", a35="a35",
                  a45="a45")
    mu_sym = dict(a33="a33", a54="a54", alpha="alpha", beta="beta")
    cases = [
        (bateman(ctx, entropy="identity"), bateman_inverse, b_sym, None),
        (bateman(ctx, 1, 2, 1, 3, entropy="identity"), bateman_inverse,
         dict(b1=1, b2=2, b3=1, b4=3), None),
        (bateman(ctx, QQ(1, 2), -1, 3, QQ(2, 5), entropy="identity"),
         bateman_inverse, dict(b1=QQ(1, 2), b2=-1, b3=3, b4=QQ(2, 5)), None),
        (theorem_map(ctx, entropy="identity"), theorem_inverse,
         dict(th_sym, a11=1), psi),
        (theorem_map(ctx, a11=-1, entropy="identity"), theorem_inverse,
         dict(th_sym, a11=-1), psi),
        (theorem_map(ctx, alpha=1, beta=2, k=1, a11=1, a34=QQ(1, 2), a35=2,
                     a45=3, psi=1, entropy="identity"), theorem_inverse,
         dict(alpha=1, beta=2, a11=1, a34=QQ(1, 2), a35=2, a45=3), 1),
        (mu_plus(ctx, a33=sym("a33"), a54=sym("a54"), alpha=sym("alpha"),
                 beta=sym("beta"), entropy="identity"), mu_plus_inverse,
         dict(mu_sym, a11=1), psi),
        (mu_plus(ctx, a33=sym("a33"), a54=sym("a54"), a11=-1,
                 alpha=sym("alpha"), beta=sym("beta"), entropy="identity"),
         mu_plus_inverse, dict(mu_sym, a11=-1), psi),
        (mu_plus(ctx, a33=2, a54=QQ(1, 3), a11=-1, alpha=1, beta=1, psi=1,
                 entropy="identity"), mu_plus_inverse,
         dict(a33=2, a54=QQ(1, 3), a11=-1, alpha=1, beta=1), 1),
    ]
    for T, reference, params, psi_value in cases:
        values = _params(ctx, **params)
        expect = reference(ctx, values) if psi_value is None else \
            reference(ctx, values, psi_value)
        assert invert(T).field_map() == expect, (T.name, params)


def test_theorem_round_trip_with_formal_psi(ctx):
    T = theorem_map(ctx, entropy="identity")
    Ti = invert(T)
    assert compose(T, Ti).is_identity()
    assert compose(Ti, T).is_identity()


def _record(**fields):
    d = {"R": "rho", "U": "u", "V": "v", "P": "p", "H": "S",
         "form": [["1", "0"], ["0", "1"]]}
    d.update(fields)
    return d


def test_invert_solves_coupled_velocities(ctx):
    # u and v are solved together, so a rotation-like velocity map with
    # no inverse in its record inverts
    T = map_from_dict(ctx, _record(U="u-v", V="u+v"))
    Ti = invert(T)
    assert Ti.U == parse(ctx, "(u+v)/2") and Ti.V == parse(ctx, "(v-u)/2")
    assert compose(T, Ti).is_identity() and compose(Ti, T).is_identity()


@pytest.mark.parametrize("fields,message", [
    ({"U": "u^2"}, "not linear-fractional"),
    ({"U": "u*v"}, "not linear-fractional"),
    ({"P": "p+F(p)"}, "not linear-fractional"),
    ({"U": "u+F(rho)"}, "couples fields"),
    ({"U": "u", "V": "2*u"}, "degenerate"),
    ({"H": "F(S)"}, "entropy"),
])
def test_invert_refuses_what_it_cannot_solve(ctx, fields, message):
    with pytest.raises(NotInvertible, match=message):
        invert(map_from_dict(ctx, _record(**fields)))


def test_invert_symbolic_bateman(ctx):
    T = bateman(ctx, entropy="identity")
    assert compose(T, invert(T)).is_identity()


def test_invert_requires_identity_entropy(ctx):
    with pytest.raises(NotInvertible):
        invert(bateman(ctx, 1, 0, 1, 0, entropy="formal"))


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
    kinds = (ReciprocalMap, OneParamFamily)
    assert sorted(n for k in kinds for n in entries(k)) == sorted(CATALOG)
    assert len(set(CATALOG.values())) == len(CATALOG)
    for kind in kinds:
        for name in entries(kind):
            assert isinstance(catalog(ctx, name, kind), kind), name


@pytest.mark.parametrize("name,kinds", [
    ("munk_prim", (OneParamFamily,)),
    ("E1", (OneParamFamily,)),
    ("bateman", (OneParamFamily,)),
])
def test_wrong_kind_lists_the_entries_of_the_kind_needed(ctx, name, kinds):
    with pytest.raises(UnknownCatalogEntry) as exc:
        catalog(ctx, name, *kinds)
    assert str(exc.value).endswith(": " + ", ".join(entries(*kinds)))


def test_map_json_round_trip(ctx, tmp_path):
    T = bateman(ctx, 1, 2, 1, 3, entropy="identity")
    d = {"R": str(T.R), "U": str(T.U), "V": str(T.V), "P": str(T.P),
         "H": str(T.H), "form": [[str(c) for c in row] for row in T.f]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    back = map_from_dict(ctx, json.loads(path.read_text()))
    for a, b in zip(back.components(), T.components()):
        assert (a - b).is_zero()
    assert invert(back).field_map() == invert(T).field_map()
    assert verify_reciprocal(back).passed


def test_simplified_form_matches_display(ctx):
    T = bateman_simplified(ctx, parse(ctx, "b3"), parse(ctx, "b4"))
    assert T.U == parse(ctx, "b3*0 + u/p")
    assert T.P == parse(ctx, "b4 - b3/p")
    assert T.f[0][0] == parse(ctx, "p+rho*v^2")
    assert T.f[1][1] == parse(ctx, "p+rho*u^2")
