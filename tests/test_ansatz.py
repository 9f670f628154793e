"""Polynomial-ansatz nullspace recovery of the reciprocal generators."""

import random
from fractions import Fraction

import pytest

from recipgas import prolong
from recipgas.accept import criterion_5
from recipgas.cli import main
from recipgas.gasdyn import (ConservationFormParams, InvalidParams,
                             standard_context)
from recipgas.liealg import membership, standard_basis, x_f, x_h
from recipgas.prolong import (_candidate_vectors, _flux_matrix, _monomials,
                              _one_slot, case_generators,
                              determining_residuals, first_method_generator,
                              solve_ansatz, solve_ansatz_first_method)
from recipgas.symkernel import Expr, linalg


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def test_degree_zero_space(ctx):
    basis = standard_basis(ctx)
    sol = solve_ansatz(ctx, 0)
    assert sol.dimension == 3
    one = Expr.const(ctx, 1)
    for g in (basis[1], basis[4], x_f(ctx, one)):
        assert membership(g, sol.generators) is not None
    for g in sol.generators:
        assert determining_residuals(g).is_zero()


def test_degree_one_contains_rotation(ctx):
    sol = solve_ansatz(ctx, 1)
    assert membership(standard_basis(ctx)[0], sol.generators) is not None


@pytest.fixture(scope="module")
def degree_four(ctx):
    return solve_ansatz(ctx, 4)


def test_degree_four_space(ctx, degree_four):
    sol = degree_four
    assert sol.reverified
    assert sol.dimension == 7
    assert sol.candidates == 9 * 70
    one = Expr.const(ctx, 1)
    targets = list(standard_basis(ctx)) + [x_h(ctx, one), x_f(ctx, one)]
    pb = ConservationFormParams.make(ctx, 1, 1, Fraction(1, 3),
                                     Fraction(1, 3), Fraction(1, 2),
                                     Fraction(-1, 2))
    targets.append(case_generators("b", pb, ctx, k=1))
    pc = ConservationFormParams.make(ctx, 1, 1, Fraction(1, 4),
                                     Fraction(1, 4), 0, 0)
    targets.append(case_generators("c", pc, ctx, k1=2, k2=3))
    for g in targets:
        assert membership(g, sol.generators) is not None, g.label
    for g in sol.generators:
        assert determining_residuals(g).is_zero()


def test_degree_six_space_contains_degree_four(ctx, degree_four):
    sol = solve_ansatz(ctx, 6)
    assert sol.candidates == 9 * 210
    assert sol.reverified and sol.dimension == 7
    for g in degree_four.generators:
        assert membership(g, sol.generators) is not None


def test_degree_four_nullspace_work(ctx, monkeypatch):
    # the forced-column pass of rref settles 595 of the 630 columns
    # without arithmetic; plain elimination makes 6187 row subtractions
    vectors = _candidate_vectors(range(9), _monomials(ctx, 4), _one_slot,
                                 Expr.var(ctx, "u") ** 4)
    calls = []
    subtract = linalg._subtract

    def counted(*args):
        calls.append(None)
        return subtract(*args)

    monkeypatch.setattr(linalg, "_subtract", counted)
    basis = linalg.nullspace(list(linalg.transpose(vectors).values()),
                             len(vectors))
    assert len(basis) == 7
    assert len(calls) < 1000


def test_first_method_zero_pressure_slot(ctx):
    # with the pressure slot pinned to zero, the two-step method only
    # recovers the two equivalence families at constant function slices
    params = ConservationFormParams.make(ctx, 1, 1, 0, 0, 0, 0)
    sol = solve_ansatz_first_method(ctx, params, max_degree=2)
    assert sol.dimension == 2
    one = Expr.const(ctx, 1)
    assert membership(x_h(ctx, one), sol.generators) is not None
    assert membership(x_f(ctx, one), sol.generators) is not None


def _full_pipeline_vector(g, clear):
    """Reference: the determining residuals of one concrete candidate
    generator, times clear, as {(residual index, mono): QQ}."""
    vec = {}
    for ti, (tag, r) in enumerate(determining_residuals(g).residuals):
        rc = r * clear
        assert rc.is_polynomial(), tag
        for mono, c in rc.coefficients().items():
            vec[(ti, mono)] = c
    return vec


def _nine_slot_method(ctx):
    return range(9), _one_slot, Expr.var(ctx, "u") ** 4, 4, 6


def _first_method(ctx, q12=0):
    params = ConservationFormParams.make(ctx, 1, 1, q12, q12, 0, 0)
    delta = _flux_matrix(params)[1]
    make = lambda s, value: first_method_generator(ctx, params, **{s: value})
    return (("zr", "zu", "zv", "zs", "zp"), make,
            Expr.var(ctx, "u") ** 4 * delta ** 2, 2, 2)


def _first_method_quarter(ctx):
    # off q12 = q22 = 0 the formal-slot residuals put numerators in the
    # fields and the slot atoms over denominators in the fields alone
    return _first_method(ctx, Fraction(1, 4))


@pytest.mark.parametrize("method", [_nine_slot_method, _first_method,
                                    _first_method_quarter])
def test_candidate_vectors_match_full_pipeline(ctx, method):
    # the one-run-per-slot vectors equal those of the full pipeline run on
    # each concrete one-monomial candidate, for every slot
    slots, make, clear, degree, k = method(ctx)
    monos = random.Random(20240801).sample(_monomials(ctx, degree), k)
    got = _candidate_vectors(slots, monos, make, clear)
    want = [_full_pipeline_vector(make(s, m), clear)
            for s in slots for m in monos]
    assert got == want


def test_one_determining_run_per_slot(ctx, monkeypatch):
    calls = []

    def counted(g, *args):
        calls.append(g)
        return determining_residuals(g, *args)

    monkeypatch.setattr(prolong, "determining_residuals", counted)
    sol = solve_ansatz(ctx, 1)
    assert sol.candidates == 9 * 5
    # one run per slot, then one re-verification per basis element
    assert len(calls) == 9 + sol.dimension


@pytest.mark.parametrize("solve", [
    lambda ctx: solve_ansatz(ctx, -1),
    lambda ctx: solve_ansatz_first_method(
        ctx, ConservationFormParams.make(ctx), max_degree=-1),
], ids=["nine-slot", "first-method"])
def test_negative_degree_is_invalid(ctx, solve):
    # no ansatz may pass on zero candidates
    with pytest.raises(InvalidParams):
        solve(ctx)


@pytest.fixture
def spoiled_reverification(ctx, monkeypatch):
    """The first re-verification run (after one run per slot) sees a
    nonzero residual."""
    calls = []

    def spoiled(g, *args):
        calls.append(g)
        ds = determining_residuals(g, *args)
        if len(calls) == 10:
            ds.residuals[0] = (ds.residuals[0][0], Expr.const(ctx, 1))
        return ds

    monkeypatch.setattr(prolong, "determining_residuals", spoiled)


def test_failed_reverification_is_a_fail(ctx, spoiled_reverification):
    sol = solve_ansatz(ctx, 0)
    assert sol.dimension == 3 and sol.reverified is False


def test_failed_reverification_fails_the_command(spoiled_reverification,
                                                capsys):
    assert main(["solve-ansatz", "--degree", "0"]) == 1
    assert "FAIL all 3 basis elements re-verified" in capsys.readouterr().out


def test_failed_reverification_fails_criterion_5(spoiled_reverification):
    report = criterion_5()
    assert report.items[0].name == "every basis element re-verified"
    assert not report.items[0].passed and not report.passed
