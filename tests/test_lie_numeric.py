"""Finite-difference flow consistency and group composition checks."""

from dataclasses import replace
from fractions import Fraction

import pytest

from recipgas.gasdyn import InvalidParams, standard_context
from recipgas.symkernel import parse
from recipgas.symkernel.errors import NumericDomain
from recipgas.transforms import verify
from recipgas.transforms import (composition_additivity, lie_equation_check,
                                 one_param_bateman, one_param_exp,
                                 one_param_linear, one_param_q13)

TOL = 1e-9


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


@pytest.mark.parametrize("maker, kwargs", [
    (one_param_bateman, {}),
    (one_param_q13, {"q12": 0, "q13": 1}),
    (one_param_q13, {"q12": Fraction(1, 3), "q13": Fraction(1, 2)}),
    (one_param_exp, {"k1": 1, "k2": 1, "q12": 0}),
    (one_param_exp, {"k1": Fraction(1, 2), "k2": 1, "q12": Fraction(1, 4)}),
    (one_param_linear, {"k2": 1, "q12": 0}),
    (one_param_linear, {"k2": 1, "q12": Fraction(1, 3)}),
])
def test_flow_matches_generator(ctx, maker, kwargs):
    fam = maker(ctx, **kwargs)
    res = lie_equation_check(fam, n_points=100)
    assert res.max_residual < TOL, (fam.name, res.max_residual)


@pytest.mark.parametrize("maker, kwargs, residual", [
    (one_param_bateman, {}, 2.601634525603078e-10),
    (one_param_q13, {"q12": 0, "q13": 1}, 3.1688236327166906e-10),
    (one_param_exp, {"k1": 1, "k2": 1, "q12": 0}, 4.886871676889971e-10),
    (one_param_linear, {"k2": 1, "q12": 0}, 2.3659116367877116e-10),
])
def test_paper_families_residual_pinned(ctx, maker, kwargs, residual):
    # the truncation term at the default seed and step, to the last bit
    res = lie_equation_check(maker(ctx, **kwargs), n_points=100,
                             seed=verify.DEFAULT_SEED)
    assert res.max_residual == residual


def test_scaled_generator_fails(ctx):
    # a generator twice the family's eps-derivative misses the flow by
    # the size of the derivative, far above any truncation term
    fam = one_param_bateman(ctx)
    wrong = replace(fam, make_generator=lambda: fam.generator.scale(2))
    assert lie_equation_check(wrong, n_points=100).max_residual > 1e-3


def test_composition_additivity(ctx):
    dev = composition_additivity(one_param_bateman(ctx), n_points=100)
    assert dev < TOL


def test_symbolic_family_rejects_numeric_check(ctx):
    fam = one_param_q13(ctx, q12=parse(ctx, "q12"), q13=parse(ctx, "q13"))
    for check in (lie_equation_check, composition_additivity):
        with pytest.raises(NumericDomain):
            check(fam, n_points=2)


def test_deterministic_given_seed(ctx):
    fam = one_param_bateman(ctx)
    a = lie_equation_check(fam, n_points=30, seed=123).max_residual
    b = lie_equation_check(fam, n_points=30, seed=123).max_residual
    assert a == b


def test_stencil_in_extended_precision(ctx):
    # the residual is the pure O(step^2) truncation term: no rounding
    # floor of order 1e-17/step from double-precision stencil nodes
    fam = one_param_q13(ctx, q12=Fraction(3, 8), q13=Fraction(5, 4))
    r6, r7, r8 = (lie_equation_check(fam, n_points=30, step=s).max_residual
                  for s in (1e-6, 1e-7, 1e-8))
    assert r8 < 1e-12
    assert 90 <= r6 / r7 <= 110


@pytest.mark.parametrize("maker, kwargs", [
    (one_param_q13, {"q12": 0, "q13": Fraction(1, 3)}),
    (one_param_exp, {"k1": Fraction(1, 3)}),
])
def test_non_dyadic_rate_taken_exactly(ctx, maker, kwargs):
    # the rate enters the 40-digit leaf argument exactly: rounded to a
    # double, 1/3 would stall the residual near 5e-16 instead of letting
    # it fall as step^2 down to 1e-22
    fam = maker(ctx, **kwargs)
    r8, r10, r12 = (lie_equation_check(fam, n_points=30, step=s).max_residual
                    for s in (1e-8, 1e-10, 1e-12))
    assert r12 < 1e-21
    assert 0.99e4 <= r8 / r10 <= 1.01e4 and 0.99e4 <= r10 / r12 <= 1.01e4


def test_at_least_one_sample(ctx):
    fam = one_param_bateman(ctx)
    with pytest.raises(InvalidParams):
        lie_equation_check(fam, n_points=0)
    with pytest.raises(InvalidParams):
        composition_additivity(fam, n_points=0)


@pytest.mark.parametrize("maker, kwargs, distinct, rational", [
    (one_param_bateman, {}, 2, 4),
    (one_param_q13, {"q12": 0, "q13": 1}, 3, 8),
    (one_param_exp, {"k1": 1, "k2": 1, "q12": 0}, 3, 8),
    (one_param_linear, {"k2": 1, "q12": 0}, 2, 4),
])
def test_guard_evaluates_distinct_denominators(ctx, monkeypatch, maker,
                                               kwargs, distinct, rational):
    # the stencil guard evaluates each distinct denominator once per node,
    # not once per component that has it
    fam = maker(ctx, **kwargs)
    comps = fam.map_sym.components()
    assert sum(not c.is_polynomial() for c in comps) == rational
    assert len(fam.map_sym.denominators()) == distinct
    sizes = []

    def evaluate(evaluator, assign):
        values = evaluator(assign)
        sizes.append(len(values))
        return values

    monkeypatch.setattr(verify, "_eval_poly_mp", evaluate)
    lie_equation_check(fam, n_points=3)
    # the guard's denominators at each node, then the nine components at
    # the three nodes and the nine generator values
    assert set(sizes) == {distinct, 9}
