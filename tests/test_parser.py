"""Expression grammar: precedence, literals, functions, error positions."""

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import Expr, parse
from recipgas.symkernel.errors import (DegreeOverflow, ParseError,
                                       UnknownVariable)
from recipgas.symkernel.parser import MAX_NESTING
from recipgas.symkernel.poly import QQ


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def test_precedence(ctx):
    assert parse(ctx, "1+2*3") == Expr.const(ctx, 7)
    assert parse(ctx, "(1+2)*3") == Expr.const(ctx, 9)
    assert parse(ctx, "2^3^1") == Expr.const(ctx, 8)
    assert parse(ctx, "-u^2") == -(parse(ctx, "u") ** 2)


def test_rational_literals(ctx):
    assert parse(ctx, "3/4").as_rational() == QQ(3, 4)
    assert parse(ctx, "1/3 + 1/6").as_rational() == QQ(1, 2)


def test_negative_exponent(ctx):
    assert parse(ctx, "u^(-2)") == parse(ctx, "1/u^2")


def test_whitespace_insensitive(ctx):
    assert parse(ctx, " u *\n ( v + 1 ) ") == parse(ctx, "u*(v+1)")


def test_function_application(ctx):
    assert parse(ctx, "h(S)") == Expr.function(ctx, "h", parse(ctx, "S"))
    assert parse(ctx, "G(rho, S)") == Expr.function(
        ctx, "G", parse(ctx, "rho"), parse(ctx, "S"))


def test_derivative_markers(ctx):
    m1 = parse(ctx, "h'(S)")
    assert m1 == Expr.function(ctx, "h", parse(ctx, "S"), orders=(1,))
    assert parse(ctx, "h''(S)") == Expr.function(ctx, "h", parse(ctx, "S"),
                                                 orders=(2,))
    assert parse(ctx, "h(S)").diff("S") == m1


def test_parse_error_position(ctx):
    with pytest.raises(ParseError) as ei:
        parse(ctx, "u + \n  (v *")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse(ctx, "u + + ")
    with pytest.raises(ParseError):
        parse(ctx, "u')")
    with pytest.raises(ParseError):
        parse(ctx, "u^v")
    # beyond Python's integer string limit; was a ValueError
    for text in ("9" * 5000, "u^" + "9" * 5000):
        with pytest.raises(ParseError, match="too long"):
            parse(ctx, text)


def test_unknown_name_is_a_parse_error(ctx):
    # a misspelt name must not become a new free variable
    with pytest.raises(ParseError, match="unknown name 'fromal'") as ei:
        parse(ctx, "u +\n  2*fromal")
    assert (ei.value.line, ei.value.col) == (2, 5)
    with pytest.raises(UnknownVariable):
        Expr.var(ctx, "fromal")
    with pytest.raises(ParseError, match="unknown name 'idnetity'"):
        parse(ctx, "idnetity")
    # a function name needs no declaration: it names a formal application
    assert parse(ctx, "newfn(S)") == Expr.function(ctx, "newfn",
                                                   parse(ctx, "S"))


def test_exponent_beyond_the_degree_limit(ctx):
    # x^70000 used to wrap around into x^4465*y; the towers used to be
    # computed before any bound, and 2^65536 failed to format in the message
    for text in ("x^70000", "rho^2^2^2^2^2", "rho^9^9^9", "2^(9^9)"):
        with pytest.raises(DegreeOverflow):
            parse(ctx, text)
    assert str(parse(ctx, "x^32767")) == "x^32767"
    assert str(parse(ctx, "x^2^14")) == "x^16384"


# text nested d levels deep: parentheses, function applications, an
# exponent tower (its first ^ is no nesting), parenthesized exponents
NESTED = {
    "parentheses": lambda d: "(" * d + "rho" + ")" * d,
    "applications": lambda d: "F(" * d + "u" + ")" * d,
    "tower": lambda d: "^".join(["1"] * (d + 2)),
    "exponents": lambda d: "u^" + "(" * d + "1" + ")" * d,
}


@pytest.mark.parametrize("kind", NESTED)
def test_nesting_limit(ctx, kind):
    # deeper text used to exhaust the recursion limit (RecursionError)
    parse(ctx, NESTED[kind](MAX_NESTING))
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError,
                           match="nesting deeper than %d" % MAX_NESTING):
            parse(ctx, NESTED[kind](depth))
    # the limit is on depth, not on the number of groups
    parse(ctx, "+".join([NESTED[kind](MAX_NESTING)] * 3))


def test_parse_division_by_zero(ctx):
    with pytest.raises(ParseError):
        parse(ctx, "1/(2-2)")


def test_round_trip(ctx):
    for text in ("u+v", "(rho*u^2+1)/(p+b2)", "h'(S)*u-2/3",
                 "q13*(u-lam*v)/(q13-lam*(p+q12))"):
        e = parse(ctx, text)
        assert parse(ctx, str(e)) == e
