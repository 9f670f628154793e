"""The claimed generator of a one-parameter family is built on first read.

Only the flow checks read OneParamFamily.generator.  Building a family,
and checking the reciprocity of its maps, must build no generator: with
catalog.case_generators and catalog.standard_basis patched to raise, each
of the four families still builds at paper, drawn and symbolic
parameters, and verify_reciprocal still passes on its map with the leaf
free and at a rational leaf value.  The generator read later must equal
the one built eagerly from the same parameters, slot for slot and label
included, and a second read must return the same object.
"""

import importlib
import random
from fractions import Fraction

import pytest

from recipgas.gasdyn import ConservationFormParams, standard_context
from recipgas.liealg import standard_basis
from recipgas.prolong import case_generators
from recipgas.symkernel import parse
from recipgas.transforms import (one_param_bateman, one_param_exp,
                                 one_param_linear, one_param_q13,
                                 verify_reciprocal)

# the module: recipgas.transforms.catalog names the builder function
catalog = importlib.import_module("recipgas.transforms.catalog")


def _eager(ctx, name, q12=0, q13=1, k1=1, k2=1):
    """The generator of family `name` built at once from its parameters."""
    if name == "one_param_bateman":
        return standard_basis(ctx)[2].scale(-2).with_label("-2*X3")
    if name == "one_param_q13":
        params = ConservationFormParams.make(ctx, 1, 1, q12, q12, q13, -q13)
        return case_generators("b", params, ctx, k=1)
    params = ConservationFormParams.make(ctx, 1, 1, q12, q12, 0, 0)
    if name == "one_param_exp":
        return case_generators("c", params, ctx, k1=k1, k2=k2)
    return case_generators("c", params, ctx, k1=0, k2=k2)


MAKERS = {"one_param_bateman": (one_param_bateman, ()),
          "one_param_q13": (one_param_q13, ("q12", "q13")),
          "one_param_exp": (one_param_exp, ("k1", "k2", "q12")),
          "one_param_linear": (one_param_linear, ("k2", "q12"))}


def _drawn(rng):
    """A nonzero rational with a small numerator and denominator."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                    rng.randint(1, 9))


def _cases():
    """(family, kind, parameters): the paper's defaults, two seeded draws
    and every parameter a free symbol."""
    rng = random.Random(20240801)
    for name, (_, names) in MAKERS.items():
        yield name, "paper", {}
        for _ in range(2):
            yield name, "drawn", {n: _drawn(rng) for n in names}
        if names:
            yield name, "symbolic", {n: n for n in names}


CASES = list(_cases())


def _build(ctx, name, params):
    maker = MAKERS[name][0]
    return maker(ctx, **{n: parse(ctx, v) if isinstance(v, str) else v
                         for n, v in params.items()})


def _refuse(*args, **kwargs):
    raise AssertionError("a family built its generator")


@pytest.mark.parametrize("name, kind, params", CASES)
def test_building_and_reciprocity_build_no_generator(monkeypatch, name, kind,
                                                     params):
    monkeypatch.setattr(catalog, "case_generators", _refuse)
    monkeypatch.setattr(catalog, "standard_basis", _refuse)
    fam = _build(standard_context(), name, params)
    assert verify_reciprocal(fam.map_sym).passed
    assert verify_reciprocal(fam.map_at(Fraction(1, 3))).passed


@pytest.mark.parametrize("name, kind, params", CASES)
def test_generator_read_equals_the_eager_one(name, kind, params):
    ctx = standard_context()
    fam = _build(ctx, name, params)
    want = _eager(ctx, name, **{n: parse(ctx, v) if isinstance(v, str)
                                else v for n, v in params.items()})
    got = fam.generator
    assert got.slots() == want.slots()
    assert [str(s) for s in got.slots()] == [str(s) for s in want.slots()]
    assert (got.label, got.func) == (want.label, want.func)
    assert fam.generator is got
