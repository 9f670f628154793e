"""Exact flow checks: the Lie equation and composition additivity of the
one-parameter families, decided as identities of rational functions.

Each leaf t of a family solves dt/deps = c*g(t) and has an addition law
(Olver 1986, ch. 1: a one-parameter group is the flow of its generator),
so both checks need no sample points and no tolerance, and they take
symbolic parameters.  Each negative control breaks one ingredient and
must fail with a rational witness, through the API and through
`lie-check`.
"""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from recipgas import cli
from recipgas.gasdyn import standard_context
from recipgas.symkernel import parse
from recipgas.transforms import (exact_additivity_residuals,
                                 exact_lie_residuals, one_param_bateman,
                                 one_param_exp, one_param_linear,
                                 one_param_q13, verify_flow)
from recipgas.transforms.maps import LEAVES

from helpers import assert_witness_holds


@pytest.mark.parametrize("maker, kwargs", [
    (one_param_bateman, {}),
    (one_param_q13, {"q12": 0, "q13": 1}),
    (one_param_q13, {"q12": Fraction(1, 3), "q13": Fraction(1, 2)}),
    (one_param_exp, {"k1": 1, "k2": 1, "q12": 0}),
    (one_param_exp, {"k1": Fraction(1, 3), "k2": 1, "q12": Fraction(1, 4)}),
    (one_param_linear, {"k2": 1, "q12": 0}),
    (one_param_linear, {"k2": Fraction(3, 4), "q12": Fraction(1, 3)}),
    # the pure scaling flow u' = lam*u, p' = lam^2*(p + 1/3) - 1/3, whose
    # inner linear-branch map (the identity) bateman cannot write
    (one_param_exp, {"k1": Fraction(1, 2), "k2": 0, "q12": Fraction(1, 3)}),
])
def test_families_are_flows_of_their_generators(maker, kwargs):
    rep = verify_flow(maker(standard_context(), **kwargs))
    assert rep.passed and rep.witness is None
    assert len(rep.items) == 18


@pytest.mark.parametrize("maker, names", [
    (one_param_q13, ("q12", "q13")),
    (one_param_exp, ("k1", "k2", "q12")),
    (one_param_linear, ("k2", "q12")),
])
def test_symbolic_families(maker, names):
    ctx = standard_context()
    fam = maker(ctx, **{n: parse(ctx, n) for n in names})
    assert verify_flow(fam).passed


def _scaled_generator(fam):
    return replace(fam, make_generator=lambda: fam.generator.scale(2))


def _doubled_rate(fam):
    return replace(fam, rate=fam.rate * 2)


def _wrong_addition_law(monkeypatch):
    # exp's leaves multiply; adding them is the linear leaf's law
    monkeypatch.setitem(LEAVES, "exp",
                        LEAVES["exp"]._replace(add=lambda s, t: s + t))


CONTROLS = {
    "scaled generator": ("one_param_bateman", (), _scaled_generator, "Lie"),
    "doubled rate": ("one_param_q13", ("q12=0", "q13=1"), _doubled_rate,
                     "Lie"),
    "wrong addition law": ("one_param_exp", ("k1=1", "k2=1", "q12=0"),
                           None, "additivity"),
}


def _control(monkeypatch, name):
    """The control's family request and its doctoring, installed in the
    command line's catalog lookup; the failing check's name prefix."""
    family, params, doctor, prefix = CONTROLS[name]
    if doctor is None:
        _wrong_addition_law(monkeypatch)
    else:
        entry = cli._entry
        monkeypatch.setattr(cli, "_entry",
                            lambda ctx, args: doctor(entry(ctx, args)))
    argv = ["--family", family]
    for p in params:
        argv += ["--param", p]
    return argv, prefix


def _residuals(fam):
    return dict(exact_lie_residuals(fam) + exact_additivity_residuals(fam))


@pytest.mark.parametrize("name", CONTROLS)
def test_negative_control_fails_with_witness(monkeypatch, name):
    argv, prefix = _control(monkeypatch, name)
    ctx = standard_context()
    args = cli.build_parser().parse_args(["lie-check"] + argv)
    fam = cli._entry(ctx, args)
    rep = verify_flow(fam)
    failed = [i.name for i in rep.items if not i.passed]
    # every component but the entropy map H moves with the leaf
    assert failed == ["%s %s" % (prefix, c) for c in
                      ("R", "U", "V", "P", "f11", "f12", "f21", "f22")]
    witness = rep.witness["__residual__"]
    assert witness.startswith(prefix + " R = ")
    assert Fraction(witness.split(" = ")[1]) != 0
    assert_witness_holds(rep.to_json_dict(), _residuals(fam))


@pytest.mark.parametrize("name", CONTROLS)
def test_negative_control_fails_in_lie_check(monkeypatch, capsys, name):
    argv, _ = _control(monkeypatch, name)
    assert cli.main(["--format", "json", "lie-check"] + argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "FAIL"
    args = cli.build_parser().parse_args(["lie-check"] + argv)
    assert_witness_holds(rep, _residuals(cli._entry(standard_context(),
                                                    args)))


def test_fresh_leaf_atoms_are_shared_between_calls():
    # the additivity atoms t1, t2 are declared once per context
    ctx = standard_context()
    fam = one_param_bateman(ctx)
    names = len(ctx.names)
    exact_additivity_residuals(fam)
    assert len(ctx.names) == names + 2
    assert all(r.is_zero() for _, r in exact_additivity_residuals(fam))
    assert len(ctx.names) == names + 2
