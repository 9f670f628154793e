"""Generators, commutators, structure constants, automorphism machinery."""

import json
import random

import pytest

from recipgas import liealg
from recipgas.gasdyn import standard_context
from recipgas.liealg import (AutomorphismMatrix, FunctionalConstant,
                             LieAlgebra, NotInSpan, SingularMatrix,
                             automorphism_constraints, commutator,
                             commutator_table_text, generator,
                             generator_from_dict, megaideal_constraints,
                             membership, reciprocal_algebra, standard_basis,
                             x_f, x_h, zero_generator)
from recipgas.symkernel import Expr, parse
from recipgas.symkernel.poly import QQ
from recipgas.transforms import verify_automorphism_solution

from helpers import assert_witness_holds, derived_basis_by_vectors


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


@pytest.fixture(scope="module")
def basis(ctx):
    return standard_basis(ctx)


def test_bracket_table_entries(ctx, basis):
    x1, x2, x3, x4, x5 = basis
    assert commutator(x3, x4) == x3.scale(-1)
    assert commutator(x3, x5) == x4.scale(-1)
    assert commutator(x4, x5) == x5.scale(-1)
    assert commutator(x1, x1).is_zero()
    for a in basis[:2]:
        for b in basis:
            assert commutator(a, b).is_zero()


def test_bracket_functional_families(ctx, basis):
    Xh, XF = x_h(ctx), x_f(ctx)
    for b in basis:
        assert commutator(b, Xh).is_zero()
        assert commutator(b, XF).is_zero()
    br = commutator(Xh, XF)
    hpF = Expr.function(ctx, "h", parse(ctx, "S"), orders=(1,)) * \
        Expr.function(ctx, "F", parse(ctx, "S"))
    assert br == x_h(ctx, hpF).scale(-1)


def test_structure_constants_lrt(ctx):
    L = reciprocal_algebra(ctx)
    ct = L.constant_table()
    nonzero = {k: v for k, v in ct.items() if k[0] < k[1]}
    assert nonzero == {(2, 3, 2): QQ(-1), (2, 4, 3): QQ(-1),
                       (3, 4, 4): QQ(-1)}
    hf = L.structure_constants()[(5, 6)]
    assert isinstance(hf, FunctionalConstant) and hf.coeff == -1


def test_structure_constants_center_pair(ctx, basis):
    assert LieAlgebra(basis[:2]).constant_table() == {}


def test_not_closed(ctx, basis):
    rdr = generator(ctx, zr=parse(ctx, "rho"), label="rho*d_rho")
    with pytest.raises(NotInSpan, match=r"commutator of \('X3', "
                       r"'rho\*d_rho'\) falls outside the span") as ei:
        LieAlgebra([basis[2], rdr]).structure_constants()
    assert not ei.value.residual.is_zero()


def test_derived_of_not_closed_raises(ctx, basis):
    # the derived algebra reads the same table: no silent "[]" element
    rdr = generator(ctx, zr=parse(ctx, "rho"), label="rho*d_rho")
    with pytest.raises(NotInSpan):
        LieAlgebra([basis[2], rdr]).derived_algebra()


def test_one_commutator_per_pair(ctx, monkeypatch):
    calls = []

    def counted(X, Y):
        calls.append((X.label, Y.label))
        return commutator(X, Y)

    monkeypatch.setattr(liealg, "commutator", counted)
    L = reciprocal_algebra(ctx)
    L.derived_algebra()
    L.center()
    # derived algebra and center both read the one cached table
    assert len(calls) == 7 * 6 // 2 == len(set(calls))


def test_megaideal_constraints_commutator_count(ctx, monkeypatch):
    calls = []

    def counted(X, Y):
        calls.append(None)
        return commutator(X, Y)

    monkeypatch.setattr(liealg, "commutator", counted)
    megaideal_constraints(ctx)
    # the table of X3, X4, X5 alone: criterion 2 derives L'' from L_rt
    assert len(calls) == 3


def test_megaideal_is_second_derived_algebra(ctx, basis):
    Lpp = reciprocal_algebra(ctx).derived_algebra().derived_algebra()
    assert Lpp.basis == basis[2:5]
    assert [g.label for g in Lpp.basis] == ["X3", "X4", "X5"]
    assert automorphism_constraints(ctx, Lpp.constant_table()) == \
        megaideal_constraints(ctx)


def assert_table_matches_brackets(L):
    """Every entry of L's table, recombined over its basis, is the bracket
    of its pair."""
    n = L.dim()
    table = L.structure_constants()
    assert set(table) == {(i, j) for i in range(n) for j in range(n)
                          if i != j}
    for (i, j), entry in table.items():
        got = zero_generator(L.basis[0].ctx)
        for k, c in entry:
            got = got + L.basis[k].scale(c)
        assert got == commutator(L.basis[i], L.basis[j]), (i, j)


def test_derived_tables_match_brackets(ctx, basis):
    Lp = reciprocal_algebra(ctx).derived_algebra()
    assert_table_matches_brackets(Lp)
    assert_table_matches_brackets(Lp.derived_algebra())
    for parent in _derived_parents(basis):
        assert_table_matches_brackets(LieAlgebra(parent).derived_algebra())


def _derived_parents(basis):
    x1, _, x3, x4, x5 = basis
    return ([x3 + x4, x4 - x5, x5], [x3 + x5, x4, x5],
            [x3, x4 + x5, x5 + x3], [x1, x4 + x1, x3, x5])


def test_derived_pick_matches_vector_space_pick(ctx, basis):
    x1, _, x3, x4, x5 = basis
    Lrt = reciprocal_algebra(ctx)
    xh, xf = Lrt.basis[5:]
    parents = [Lrt.basis, Lrt.derived_algebra().basis,
               *_derived_parents(basis), [x3 + x1, x4, x1],
               # dependent bases: an entry is one coordinate vector of
               # its bracket among several
               [x3, x4, x5, x3 + x4], [x3.scale(2), x3, x4, x5],
               [x1, x3, x4, x5, x1 + x3], [x4, x5, x3, xh, xf, x3 + x5]]
    for parent in parents:
        got = LieAlgebra(list(parent)).derived_algebra().basis
        want = derived_basis_by_vectors(LieAlgebra(list(parent)))
        assert [g.label for g in got] == [g.label for g in want], parent
        assert got == want, parent


def test_derived_table_of_raw_bracket(ctx, basis):
    x1, _, x3, x4, _ = basis
    D = LieAlgebra([x3 + x1, x4, x1]).derived_algebra()
    assert [g.label for g in D.basis] == ["[]"]
    assert D.basis[0] == x3.scale(-1)
    assert_table_matches_brackets(D)


def test_derived_series(ctx):
    L = reciprocal_algebra(ctx)
    Lp = L.derived_algebra()
    assert [g.label for g in Lp.basis] == ["X3", "X4", "X5", "Xh"]
    Lpp = Lp.derived_algebra()
    assert [g.label for g in Lpp.basis] == ["X3", "X4", "X5"]
    # monotone: derived of derived is contained in derived
    for g in Lpp.basis:
        assert membership(g, Lp.basis) is not None


def test_derived_of_abelian_is_zero(ctx, basis):
    assert LieAlgebra(basis[:2]).derived_algebra().dim() == 0


def test_center(ctx, basis):
    L = reciprocal_algebra(ctx)
    Z = L.center()
    assert Z.dim() == 2
    assert membership(basis[0], Z.basis) is not None
    assert membership(basis[1], Z.basis) is not None
    for g in Z.basis:
        for b in L.basis:
            assert commutator(g, b).is_zero()
    # the 3-dimensional megaideal is centerless; an abelian pair is all
    # center
    assert LieAlgebra(basis[2:5]).center().dim() == 0
    assert LieAlgebra(basis[:2]).center().dim() == 2


def jacobi_residuals(table: dict, dim: int):
    """sum_m (c_ij^m c_mk^n + c_jk^m c_mi^n + c_ki^m c_mj^n) over all
    i<j<k, n."""
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                for n in range(dim):
                    s = QQ(0)
                    for m in range(dim):
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                            s += liealg._constant(table, a, b, m) * \
                                liealg._constant(table, m, c, n)
                    out.append(((i, j, k, n), s))
    return out


def test_jacobi_property(ctx):
    L = reciprocal_algebra(ctx)
    for _, val in jacobi_residuals(L.constant_table(), 7):
        assert val == 0


def test_automorphism_constraints_nine(ctx):
    cons = megaideal_constraints(ctx)
    assert len(cons) == 9
    texts = {str(c) for c in cons}
    assert "a33*a44-a34*a43-a33" in texts


def test_automorphism_constraints_abelian_empty(ctx):
    assert automorphism_constraints(ctx, {}) == []


def test_identity_always_satisfies(ctx):
    rng = random.Random(5)
    one, zero = Expr.const(ctx, 1), Expr.const(ctx, 0)
    ident = AutomorphismMatrix(((one, zero, zero), (zero, one, zero),
                                (zero, zero, one)))
    for _ in range(5):
        table = {}
        for (i, j, k) in [(0, 1, 0), (0, 1, 2), (0, 2, 1), (1, 2, 2)]:
            table[(i, j, k)] = QQ(rng.randint(-2, 2))
        cons = automorphism_constraints(ctx, table)
        rep = verify_automorphism_solution(ident, cons)
        assert rep.passed


def test_generic_matrix_fails(ctx):
    cons = megaideal_constraints(ctx)
    c = lambda q: Expr.const(ctx, q)
    A = AutomorphismMatrix((
        (c(QQ(2, 3)), c(QQ(1, 5)), c(QQ(-1, 2))),
        (c(QQ(1, 7)), c(QQ(3, 2)), c(QQ(1, 3))),
        (c(QQ(-2, 5)), c(QQ(1, 2)), c(QQ(4, 3)))))
    rep = verify_automorphism_solution(A, cons)
    assert not rep.passed
    at_a = {"a%d%d" % (n, i): A.entries[n - 3][i - 3]
            for n in (3, 4, 5) for i in (3, 4, 5)}
    assert_witness_holds(rep.to_json_dict(), {
        "constraint %d" % (i + 1): c.substitute(at_a)
        for i, c in enumerate(cons)})


def test_singular_matrix_raises(ctx):
    cons = megaideal_constraints(ctx)
    one, zero = Expr.const(ctx, 1), Expr.const(ctx, 0)
    A = AutomorphismMatrix(((one, zero, zero), (one, zero, zero),
                            (zero, zero, one)))
    with pytest.raises(SingularMatrix):
        verify_automorphism_solution(A, cons)


def test_generator_json_round_trip(ctx, basis, tmp_path):
    x3 = basis[2]
    d = {k: str(z) for k, z in zip(("zeta_rho", "zeta_u", "zeta_v",
                                    "zeta_p", "zeta_S"), x3.field_slots())}
    d["form"] = [[str(m) for m in row] for row in x3.matrix()]
    path = tmp_path / "x3.json"
    path.write_text(json.dumps(d))
    back = generator_from_dict(ctx, json.loads(path.read_text()))
    assert back == x3


def test_generator_record_absent_slots_are_zero(ctx):
    assert generator_from_dict(ctx, {"zeta_rho": "rho"}) == \
        generator(ctx, zr=parse(ctx, "rho"))


def test_zero_generator_and_arithmetic(ctx, basis):
    z = zero_generator(ctx)
    assert z.is_zero()
    g = basis[3] + basis[4].scale(QQ(2)) - basis[3]
    assert g == basis[4].scale(2)


def test_commutator_rejects_mixed_contexts(ctx):
    from recipgas.symkernel.errors import VariableMismatch
    other = standard_context()
    with pytest.raises(VariableMismatch):
        commutator(standard_basis(ctx)[2], standard_basis(other)[3])


def test_commutator_table_text(ctx):
    text = commutator_table_text(reciprocal_algebra(ctx))
    lines = text.splitlines()
    assert lines[0].split() == ["X1", "X2", "X3", "X4", "X5", "Xh", "XF"]
    assert "-X3" in text and "-X4" in text and "-X5" in text
    assert "X[" in text  # the functional entry


def test_equal_generators_hash_equal(basis):
    # equality reads only the nine slots, not the label, and so does hash
    x3 = basis[2]
    other = x3.with_label("other")
    assert x3 == other and hash(x3) == hash(other)
    assert len({x3, other}) == 1
