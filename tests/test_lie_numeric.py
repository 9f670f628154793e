"""Finite-difference flow consistency and group composition checks."""

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


def test_composition_additivity(ctx):
    dev = composition_additivity(one_param_bateman(ctx), n_points=100)
    assert dev < TOL


def test_symbolic_family_rejects_numeric_check(ctx):
    fam = one_param_q13(ctx, q12=parse(ctx, "q12"), q13=parse(ctx, "q13"))
    with pytest.raises(NumericDomain):
        lie_equation_check(fam, n_points=2)


def test_deterministic_given_seed(ctx):
    fam = one_param_bateman(ctx)
    a = lie_equation_check(fam, n_points=30, seed=123).max_residual
    b = lie_equation_check(fam, n_points=30, seed=123).max_residual
    assert a == b


def test_inverse_symbol_map(ctx):
    fam = one_param_exp(ctx, k1=1, k2=1, q12=0)
    assert fam.inverse_symbol_map(2.0) == 0.5
    fam2 = one_param_bateman(ctx)
    assert fam2.inverse_symbol_map(0.25) == -0.25


def test_stencil_in_extended_precision(ctx):
    # the residual is the pure O(step^2) truncation term: no rounding
    # floor of order 1e-17/step from double-precision stencil nodes
    fam = one_param_q13(ctx, q12=Fraction(3, 8), q13=Fraction(5, 4))
    r6, r7, r8 = (lie_equation_check(fam, n_points=30, step=s).max_residual
                  for s in (1e-6, 1e-7, 1e-8))
    assert r8 < 1e-12
    assert 90 <= r6 / r7 <= 110


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
