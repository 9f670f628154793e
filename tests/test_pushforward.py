"""Pushforward of generators, decomposition, transport relations."""

import importlib

import pytest

from recipgas.gasdyn import standard_context
from recipgas.liealg import (AutomorphismMatrix, NotInSpan,
                             megaideal_constraints, standard_basis, x_f)
from recipgas.symkernel import Expr, parse
from recipgas.transforms import (appendix_pde_residuals,
                                 center_pde_residuals, bateman, compose,
                                 decompose, identity_map,
                                 involution_E2_reciprocal, mu_plus,
                                 pushforward, pushforward_matrix,
                                 theorem_map, verify_automorphism_solution)


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


@pytest.fixture(scope="module")
def megaideal(ctx):
    return standard_basis(ctx)[2:5]


@pytest.fixture(scope="module")
def nine(ctx):
    return megaideal_constraints(ctx)


def test_pushforward_identity(ctx, megaideal):
    T = identity_map(ctx)
    for X in megaideal:
        assert pushforward(T, X) == X


def test_decompose_trivial(ctx, megaideal):
    coeffs = decompose(megaideal[0], megaideal)
    assert [str(c) for c in coeffs] == ["1", "0", "0"]


def test_bateman_matrix_satisfies_constraints(ctx, megaideal, nine):
    T = bateman(ctx, entropy="identity")
    M = pushforward_matrix(T, megaideal)
    rep = verify_automorphism_solution(M, nine)
    assert rep.passed
    assert (rep.extras["det"] - 1).is_zero()
    b1, b2, b3, b4 = (parse(ctx, n) for n in ("b1", "b2", "b3", "b4"))
    c = b1 ** 2 * b3
    assert (M.entries[0][2] - 2 / c).is_zero()
    assert (M.entries[0][1] + 2 * b2 / c).is_zero()
    assert (M.entries[1][2] + 2 * b4 / c).is_zero()


def test_pressure_shift_pushforward_flow_basis(ctx, megaideal):
    # against the flow-normalized basis [2*X3, X4, X5] the pressure-shift
    # image decomposes with coefficients (1, -2 b4, b4^2)/(b1^2 b3)
    T = bateman(ctx, entropy="identity")
    x3, x4, x5 = megaideal
    coeffs = decompose(pushforward(T, x5), [x3.scale(2), x4, x5])
    b1, b3, b4 = (parse(ctx, n) for n in ("b1", "b3", "b4"))
    c = b1 ** 2 * b3
    expected = [1 / c, -2 * b4 / c, b4 ** 2 / c]
    for got, want in zip(coeffs, expected):
        assert (got - want).is_zero()


def test_center_pushforward(ctx):
    x1 = standard_basis(ctx)[0]
    T = bateman(ctx, entropy="identity")
    assert pushforward(T, x1) == x1
    TE = compose(involution_E2_reciprocal(ctx), T)
    assert pushforward(TE, x1) == x1.scale(-1)


def test_entropy_family_not_in_span(ctx, megaideal):
    T = bateman(ctx, entropy="identity")
    with pytest.raises(NotInSpan):
        decompose(pushforward(T, x_f(ctx)), megaideal)


def test_theorem_matrix_matches_declared_solution(ctx, megaideal, nine):
    a34, a35, a45 = (parse(ctx, n) for n in ("a34", "a35", "a45"))
    T = theorem_map(ctx, alpha=1, beta=2, k=parse(ctx, "k"), a11=1,
                    a34=a34, a35=a35, a45=a45, psi="formal",
                    entropy="identity")
    M = pushforward_matrix(T, megaideal)
    rep = verify_automorphism_solution(M, nine)
    assert rep.passed
    declared = {
        (0, 0): a34 ** 2 / (2 * a35), (0, 1): a34, (0, 2): a35,
        (1, 0): a34 * (a45 * a34 - 2 * a35) / (2 * a35 ** 2),
        (1, 1): a45 * a34 / a35 - 1, (1, 2): a45,
        (2, 0): (a45 ** 2 * a34 ** 2 - 4 * a45 * a35 * a34
                 + 4 * a35 ** 2) / (4 * a35 ** 3),
        (2, 1): a45 * (a45 * a34 - 2 * a35) / (2 * a35 ** 2),
        (2, 2): a45 ** 2 / (2 * a35),
    }
    for (i, j), want in declared.items():
        assert (M.entries[i][j] - want).is_zero()


def test_every_catalog_reciprocal_matrix(ctx, megaideal, nine):
    from recipgas.symkernel.poly import QQ
    from recipgas.transforms import (involution_E1_reciprocal,
                                     one_param_bateman, one_param_exp,
                                     one_param_linear, one_param_q13)
    instances = [
        bateman(ctx, 1, 2, 1, 3, entropy="identity"),
        one_param_bateman(ctx).map_at(QQ(1, 5)),
        one_param_q13(ctx, q12=QQ(1, 3), q13=QQ(1, 2)).map_at(QQ(1, 7)),
        one_param_exp(ctx, k1=1, k2=1, q12=QQ(1, 4)).map_at(QQ(5, 4)),
        one_param_linear(ctx, k2=1, q12=QQ(1, 3)).map_at(QQ(1, 6)),
        theorem_map(ctx, alpha=1, beta=2, k=1, a11=1, a34=QQ(1, 2),
                    a35=2, a45=3, psi=1, entropy="identity"),
        mu_plus(ctx, a33=2, a54=QQ(1, 3), a11=1, alpha=1, beta=1,
                psi=1, entropy="identity"),
        involution_E1_reciprocal(ctx),
        involution_E2_reciprocal(ctx),
        identity_map(ctx),
    ]
    for T in instances:
        M = pushforward_matrix(T, megaideal)
        rep = verify_automorphism_solution(M, nine)
        assert rep.passed, T.name
        assert not rep.extras["det"].is_zero()


def test_matrix_columns_match_single_pushforwards(ctx, megaideal):
    # pushforward_matrix substitutes every column at once; each entry is
    # the decomposition of that column's pushforward on its own
    from recipgas.symkernel.poly import QQ
    from recipgas.transforms import (one_param_bateman, one_param_exp,
                                     one_param_linear, one_param_q13)
    instances = [
        bateman(ctx, entropy="identity"),
        bateman(ctx, QQ(2, 3), 2, QQ(-1, 2), 3, entropy="identity"),
        theorem_map(ctx, alpha=1, beta=2, k=1, a11=1, a34=QQ(1, 2),
                    a35=2, a45=3, psi=1, entropy="identity"),
        mu_plus(ctx, a33=2, a54=QQ(1, 3), a11=-1, alpha=1, beta=1,
                psi=1, entropy="identity"),
        one_param_bateman(ctx).map_at(QQ(1, 5)),
        one_param_q13(ctx, q12=QQ(1, 3), q13=QQ(1, 2)).map_at(QQ(1, 7)),
        one_param_exp(ctx, k1=1, k2=1, q12=QQ(1, 4)).map_at(QQ(5, 4)),
        one_param_linear(ctx, k2=1, q12=QQ(1, 3)).map_at(QQ(1, 6)),
    ]
    for T in instances:
        M = pushforward_matrix(T, megaideal)
        for i, X in enumerate(megaideal):
            col = decompose(pushforward(T, X), megaideal)
            assert [row[i] for row in M.entries] == col, (T.name, X.label)


def test_one_inverse_per_matrix(ctx, megaideal, monkeypatch):
    module = importlib.import_module("recipgas.transforms.pushforward")
    calls = []
    solve_inverse = module.solve_inverse

    def counted(T):
        calls.append(T.name)
        return solve_inverse(T)

    monkeypatch.setattr(module, "solve_inverse", counted)
    pushforward_matrix(bateman(ctx, entropy="identity"), megaideal)
    # the inverse is solved once for all three columns
    assert len(calls) == 1


def test_transport_relations_identity(ctx):
    one, zero = Expr.const(ctx, 1), Expr.const(ctx, 0)
    A = AutomorphismMatrix(((one, zero, zero), (zero, one, zero),
                            (zero, zero, one)))
    rep = appendix_pde_residuals(identity_map(ctx), A)
    assert rep.passed


def test_transport_relations_bateman(ctx, megaideal):
    T = bateman(ctx, entropy="identity")
    M = pushforward_matrix(T, megaideal)
    assert appendix_pde_residuals(T, M).passed


def test_transport_relations_theorem_symbolic(ctx):
    a34, a35, a45 = (parse(ctx, n) for n in ("a34", "a35", "a45"))
    T = theorem_map(ctx, alpha=parse(ctx, "alpha"), beta=parse(ctx, "beta"),
                    k=parse(ctx, "k"), a11=1, a34=a34, a35=a35, a45=a45)
    A = AutomorphismMatrix((
        (a34 ** 2 / (2 * a35), a34, a35),
        (a34 * (a45 * a34 - 2 * a35) / (2 * a35 ** 2),
         a45 * a34 / a35 - 1, a45),
        ((a45 ** 2 * a34 ** 2 - 4 * a45 * a35 * a34 + 4 * a35 ** 2)
         / (4 * a35 ** 3),
         a45 * (a45 * a34 - 2 * a35) / (2 * a35 ** 2),
         a45 ** 2 / (2 * a35))))
    assert appendix_pde_residuals(T, A).passed


def test_transport_relations_negative_control(ctx, megaideal):
    T = bateman(ctx, entropy="identity")
    M = pushforward_matrix(T, megaideal)
    bad = [list(r) for r in M.entries]
    bad[1][2] = bad[1][2] + 1
    rep = appendix_pde_residuals(
        T, AutomorphismMatrix(tuple(tuple(r) for r in bad)))
    assert not rep.passed
    failing = [i.name for i in rep.items if not i.passed]
    assert "U_p" in failing
    assert rep.witness is not None


def test_center_transport_relations(ctx):
    a33, a54 = parse(ctx, "a33"), parse(ctx, "a54")
    for a11 in (1, -1):
        T = mu_plus(ctx, a33=a33, a54=a54, a11=a11,
                    alpha=parse(ctx, "alpha"), beta=parse(ctx, "beta"))
        rep = center_pde_residuals(T, a11, a33, a54)
        assert rep.passed
