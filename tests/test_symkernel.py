"""Exact expression kernel: canonical forms, calculus, evaluation."""

import random

import pytest

from recipgas.gasdyn import (FIELDS, ConservationFormParams,
                             standard_context, total_derivative)
from recipgas.liealg import constant_slices, standard_basis, x_f, x_h
from recipgas.prolong import case_generators
from recipgas.symkernel import Expr, parse, substitute_all
from recipgas.symkernel import expr as expr_module
from recipgas.symkernel import poly as poly_module
from recipgas.symkernel.errors import (DegreeOverflow, DivisionByZeroExpr,
                                       InvalidParams, NotPolynomialInVars,
                                       NumericDomain, UnboundSymbol,
                                       UnknownVariable, VariableMismatch)
from recipgas.symkernel.poly import QQ, pmul, ppow, pvar
from recipgas.transforms.catalog import bateman

from helpers import monomial


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


def test_polynomial_cancellation(ctx):
    assert parse(ctx, "(u^2-v^2)/(u-v)") == parse(ctx, "u+v")


def test_annihilation(ctx):
    assert parse(ctx, "0*h(S)").is_zero()


def test_normalize_idempotent(ctx):
    # construction normalizes: rebuilding from the canonical parts gives
    # the same parts, and an unreduced spelling gives the same Expr
    e = parse(ctx, "(rho*u+rho*v)/(u^2-v^2)")
    num, den = e.as_numer_denom()
    assert num / den == e
    assert (num / den).as_numer_denom() == (num, den)
    assert parse(ctx, "rho/(u-v)") == e


def test_equality_via_difference(ctx):
    a = parse(ctx, "(p+b2)^2/(p+b2)")
    b = parse(ctx, "p+b2")
    assert (a - b).is_zero()


def test_denominator_never_zero(ctx):
    from recipgas.symkernel.errors import ParseError
    with pytest.raises(DivisionByZeroExpr):
        parse(ctx, "u") / (parse(ctx, "v") - parse(ctx, "v"))
    with pytest.raises(ParseError):
        parse(ctx, "1/(u-u)")


def _naive_expand_delta(ctx):
    # independent brute-force oracle: expand the 2x2 determinant termwise
    def terms(name_coeffs):
        # list of (coeff, {var: exp}) pairs
        return name_coeffs

    A1 = [(1, {"p": 1}), (1, {"q12": 1}), (1, {"rho": 1, "v": 2})]
    B1 = [(-1, {"rho": 1, "u": 1, "v": 1}), (-1, {"q13": 1})]
    A2 = [(-1, {"rho": 1, "u": 1, "v": 1}), (-1, {"q23": 1})]
    B2 = [(1, {"p": 1}), (1, {"q22": 1}), (1, {"rho": 1, "u": 2})]

    def mul(ts1, ts2, sign):
        out = {}
        for c1, m1 in ts1:
            for c2, m2 in ts2:
                m = dict(m1)
                for k, v in m2.items():
                    m[k] = m.get(k, 0) + v
                key = tuple(sorted(m.items()))
                out[key] = out.get(key, 0) + sign * c1 * c2
        return out

    prod = mul(A1, B2, 1)
    for key, c in mul(B1, A2, -1).items():
        prod[key] = prod.get(key, 0) + c
    e = Expr.const(ctx, 0)
    for key, c in prod.items():
        if c == 0:
            continue
        term = Expr.const(ctx, c)
        for name, exp in key:
            term = term * Expr.var(ctx, name) ** exp
        e = e + term
    return e


def test_delta_expansion_cross_checked(ctx):
    displayed = parse(
        ctx, "p^2+(q12+q22)*p+p*rho*(u^2+v^2)+q12*q22-q13*q23"
             "+rho*(q12*u^2+q22*v^2)-(q13+q23)*rho*u*v")
    det = (parse(ctx, "p+q12+rho*v^2") * parse(ctx, "p+q22+rho*u^2")
           - parse(ctx, "-(rho*u*v+q13)") * parse(ctx, "-(rho*u*v+q23)"))
    assert (det - displayed).is_zero()
    assert (det - _naive_expand_delta(ctx)).is_zero()


def test_diff_basics(ctx):
    assert parse(ctx, "rho*(u^2+v^2)").diff("u") == parse(ctx, "2*rho*u")
    e = parse(ctx, "h(S)*u").diff("S")
    marker = Expr.function(ctx, "h", parse(ctx, "S"), orders=(1,))
    assert e == marker * parse(ctx, "u")
    assert parse(ctx, "(p+b2)^(-1)").diff("p") == -(parse(ctx, "p+b2") ** -2)


def test_diff_unknown_variable(ctx):
    with pytest.raises(UnknownVariable):
        parse(ctx, "u").diff("no_such_name")


def test_diff_second_order_marker(ctx):
    h = Expr.function(ctx, "h", parse(ctx, "S"))
    h2 = h.diff("S").diff("S")
    marker2 = Expr.function(ctx, "h", parse(ctx, "S"), orders=(2,))
    assert h2 == marker2


def test_diff_bivariate_chain(ctx):
    g = Expr.function(ctx, "G", parse(ctx, "rho"), parse(ctx, "S"))
    grho = g.diff("rho")
    marker = Expr.function(ctx, "G", parse(ctx, "rho"), parse(ctx, "S"),
                           orders=(1, 0))
    assert grho == marker
    assert g.diff("u").is_zero()


def _rand_expr(ctx, rng, depth=3):
    names = ["rho", "u", "v", "p", "S"]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return Expr.const(ctx, QQ(rng.randint(-4, 4), rng.randint(1, 4)))
        return Expr.var(ctx, rng.choice(names))
    a = _rand_expr(ctx, rng, depth - 1)
    b = _rand_expr(ctx, rng, depth - 1)
    op = rng.randint(0, 3)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a if b.is_zero() else a / b


def test_diff_linearity_property(ctx):
    rng = random.Random(42)
    for _ in range(25):
        e1 = _rand_expr(ctx, rng)
        e2 = _rand_expr(ctx, rng)
        a = QQ(rng.randint(-3, 3))
        b = QQ(rng.randint(-3, 3))
        lhs = (e1 * a + e2 * b).diff("u")
        rhs = e1.diff("u") * a + e2.diff("u") * b
        assert (lhs - rhs).is_zero()


def test_product_rule_property(ctx):
    rng = random.Random(7)
    for _ in range(25):
        e1 = _rand_expr(ctx, rng)
        e2 = _rand_expr(ctx, rng)
        lhs = (e1 * e2).diff("p")
        rhs = e1.diff("p") * e2 + e1 * e2.diff("p")
        assert (lhs - rhs).is_zero()


def test_normalize_congruence_property(ctx):
    # sums of canonical parts rebuilt by division are the canonical sum
    rng = random.Random(11)
    for _ in range(25):
        e1 = _rand_expr(ctx, rng)
        e2 = _rand_expr(ctx, rng)
        (n1, d1), (n2, d2) = e1.as_numer_denom(), e2.as_numer_denom()
        assert n1 / d1 + n2 / d2 == e1 + e2


def test_substitute_simultaneous_swap(ctx):
    e = parse(ctx, "u^2-v")
    swapped = e.substitute({"u": parse(ctx, "v"), "v": parse(ctx, "u")})
    assert swapped == parse(ctx, "v^2-u")


def test_substitute_pressure_inverse(ctx):
    # inverse of the pressure map: p := b1^2*b3/(b4-p) - b2 gives
    # p + b2 -> b1^2*b3/(b4-p)
    e = parse(ctx, "p+b2")
    sub = e.substitute({"p": parse(ctx, "b1^2*b3/(b4-p)-b2")})
    assert sub == parse(ctx, "b1^2*b3/(b4-p)")


def test_substitute_powers_by_squaring(ctx, monkeypatch):
    # x^16384 = x^(2^14) takes 14 squarings, not 16383 products; the
    # powers are taken on polynomials by ppow, so count its products
    e = parse(ctx, "rho^16384+rho^3*u")
    value = parse(ctx, "2*u/3")
    calls, inside = [], []

    def counted_ppow(a, n):
        inside.append(n)
        try:
            return ppow(a, n)
        finally:
            inside.pop()

    def counted_pmul(a, b):
        if inside:
            calls.append(b)
        return pmul(a, b)

    monkeypatch.setattr(expr_module, "ppow", counted_ppow)
    monkeypatch.setattr(poly_module, "pmul", counted_pmul)
    out = e.substitute({"rho": value})
    monkeypatch.undo()
    assert 0 < len(calls) <= 40
    assert out == value ** 16384 + value ** 3 * parse(ctx, "u")


def test_substitution_that_empties_a_denominator(ctx):
    # the denominator u-v vanishes only once u is replaced
    e = parse(ctx, "1/(u-v)")
    for call in (lambda: e.substitute({"u": parse(ctx, "v")}),
                 lambda: substitute_all([parse(ctx, "u"), e],
                                        {"u": parse(ctx, "v")})):
        with pytest.raises(DivisionByZeroExpr, match="^division by zero$"):
            call()


def test_substitution_cancels_against_the_own_denominator(ctx):
    # v+1 keeps no substituted variable; the substituted numerator takes
    # the factor v+1, and the basis factor p-1 of the values cancels too
    u, rho = parse(ctx, "(v+1)/(p-1)"), parse(ctx, "2*(p-1)^2/(v-1)")
    for text in ("u*rho/(v+1)", "(u*rho+u)/(3*v+3)", "u/(2*v+2)"):
        want = parse(ctx, text.replace("u", "U").replace("rho", "RHO")
                     .replace("U", "(%s)" % u).replace("RHO", "(%s)" % rho))
        assert parse(ctx, text).substitute({"u": u, "rho": rho}) == want
    # the basis keeps (p-1)*(v+1) whole, and only its factor p-1 cancels
    e = parse(ctx, "u*rho").substitute({"u": parse(ctx, "1/((p-1)*(v+1))"),
                                        "rho": parse(ctx, "(p-1)*v")})
    assert e == parse(ctx, "v/(v+1)")


def test_substitute_all_is_substitute_per_expression(ctx):
    # one binding set whose denominators share the factor p+1, as the
    # inverse fields of bateman do, into expressions over 1 and not
    bindings = {"rho": parse(ctx, "u/(p+1)"), "u": parse(ctx, "v/(p+1)^2"),
                "v": parse(ctx, "(u+1)/(u*(p+1))"), "S": 3}
    exprs = [parse(ctx, t) for t in (
        "rho*u+v^2", "(rho-u)/(v+S)", "u^2/(p-1)", "p*h(S)", "0", "x")]
    assert substitute_all(exprs, bindings) == \
        [e.substitute(bindings) for e in exprs]
    assert substitute_all([], bindings) == []
    assert substitute_all(exprs, {}) == exprs
    with pytest.raises(VariableMismatch):
        substitute_all([exprs[0], parse(standard_context(), "u")], bindings)


def test_coefficients_render_beyond_integer_string_limit(ctx):
    # Python's str() stops at 4300 digits; the text is exact past it, zero
    # digits inside the number included
    zeros = "0" * 5000
    assert str(parse(ctx, "10^5000*u-3")) == "1%s*u-3" % zeros
    assert str(parse(ctx, "-u/10^5000")) == "-1/1%s*u" % zeros
    e = parse(ctx, "(10^9000+7)*u")
    assert str(e) == "1%s7*u" % ("0" * 8999)


def test_substitute_into_functions(ctx):
    e = Expr.function(ctx, "h", parse(ctx, "S"))
    moved = e.substitute({"S": parse(ctx, "p")})
    assert moved == Expr.function(ctx, "h", parse(ctx, "p"))


def test_substitute_then_eval_matches_composed_assignment(ctx):
    rng = random.Random(3)
    for _ in range(20):
        e = _rand_expr(ctx, rng)
        binding = {"u": parse(ctx, "p+1"), "v": parse(ctx, "2*p")}
        point = {"rho": QQ(3, 2), "p": QQ(1, 3), "S": QQ(2), "u": QQ(0),
                 "v": QQ(0)}
        composed = dict(point)
        composed["u"] = point["p"] + 1
        composed["v"] = 2 * point["p"]
        try:
            direct = e.substitute(binding).eval_rational(point)
            expected = e.eval_rational(composed)
        except (DivisionByZeroExpr, ValueError, ZeroDivisionError):
            continue
        assert direct == expected


def test_collect_basic(ctx):
    e = parse(ctx, "p*u_x + rho*v_y")
    m = e.collect(["u_x", "v_y"])
    assert m[(("u_x", 1),)] == parse(ctx, "p")
    assert m[(("v_y", 1),)] == parse(ctx, "rho")


def test_collect_zero_and_reconstruction(ctx):
    assert Expr.const(ctx, 0).collect(["u_x"]) == {}
    e = parse(ctx, "(u_x^2*p + u_x*v_y + rho)/(p+1)")
    m = e.collect(["u_x", "v_y"])
    back = Expr.const(ctx, 0)
    for key, coeff in m.items():
        back = back + coeff * monomial(ctx, key)
    assert (back - e).is_zero()


def test_collect_rejects_denominator(ctx):
    with pytest.raises(NotPolynomialInVars):
        parse(ctx, "1/u_x").collect(["u_x"])


def test_eval_numeric(ctx):
    assert parse(ctx, "u/p").eval_numeric({"u": 1, "p": 2}) == 0.5


def test_eval_delta_at_point(ctx):
    delta = parse(ctx, "p^2+(q12+q22)*p+p*rho*(u^2+v^2)+q12*q22-q13*q23"
                       "+rho*(q12*u^2+q22*v^2)-(q13+q23)*rho*u*v")
    val = delta.eval_numeric({"p": 1, "rho": 1, "u": 1, "v": 0,
                              "q11": 0, "q21": 0, "q12": 0, "q22": 0,
                              "q13": 0, "q23": 0})
    assert val == 2.0


def test_eval_errors(ctx):
    with pytest.raises(UnboundSymbol):
        parse(ctx, "u+v").eval_numeric({"u": 1.0})
    with pytest.raises(NumericDomain):
        parse(ctx, "1/(p-1)").eval_numeric({"p": 1.0})


def test_eval_rational_unbound_names_leave_the_context_alone():
    # F(S) stays unbound when S is bound; no F(2), F(3), ... is declared
    ctx = standard_context()
    e = parse(ctx, "F(S)*u")
    size = len(ctx.names)
    for i in range(5):
        with pytest.raises(UnboundSymbol, match=r"no value for F\(S\)$"):
            e.eval_rational({"S": QQ(i + 2), "u": QQ(1)})
    assert len(ctx.names) == size
    assert e.eval_rational({"F(S)": QQ(3), "u": QQ(2)}) == 6


def test_deterministic_rendering(ctx):
    e = parse(ctx, "v+u+p^2+1")
    assert str(e) == str(parse(ctx, "1+p^2+u+v"))
    # graded lex: higher degree first, then earlier declaration order
    assert str(e) == "p^2+u+v+1"


def test_numer_denom_and_primitive(ctx):
    e = parse(ctx, "(6*u^2-4*v)/(3*p+6)")
    num, den = e.as_numer_denom()
    assert num == parse(ctx, "2*u^2-4/3*v") and den == parse(ctx, "p+2")
    c, prim = e.primitive()
    assert c * prim == num
    assert prim in (parse(ctx, "3*u^2-2*v"), parse(ctx, "2*v-3*u^2"))
    assert Expr.const(ctx, 0).primitive()[0] == 0


def test_coefficients_of_a_polynomial(ctx):
    e = parse(ctx, "3*u^2*v - 1/2")
    coeffs = e.coefficients()
    assert sorted(coeffs.values()) == [QQ(-1, 2), QQ(3)]
    assert coeffs == (e * 1).coefficients()
    assert (e + parse(ctx, "p")).coefficients().keys() > coeffs.keys()
    with pytest.raises(NotPolynomialInVars):
        parse(ctx, "1/u").coefficients()


def test_formal_applications_have_the_function_role(ctx):
    assert ctx.role(str(parse(ctx, "h(S)"))) == "function"
    assert ctx.role("q12") == "parameter"


# the total degree of a packed monomial must stay below 2^15; each case
# below was silently wrong or a TypeError before the bound was checked


def test_degree_bound_in_pvar():
    with pytest.raises(DegreeOverflow):
        pvar(0, 1 << 15)


def test_degree_bound_in_pmul_and_ppow(ctx):
    x = pvar(ctx.idx("x"))
    with pytest.raises(DegreeOverflow):
        pmul(ppow(x, 20000), ppow(x, 20000))
    with pytest.raises(DegreeOverflow):
        ppow(x, 1 << 15)
    assert pmul(ppow(x, 16383), ppow(x, 16384)) == ppow(x, 32767)


def test_product_beyond_the_degree_limit(ctx):
    # x^20000 * x^20000 used to give a wrong monomial silently
    a = parse(ctx, "x^20000")
    with pytest.raises(DegreeOverflow):
        a * a


def test_quotient_beyond_the_degree_limit(ctx):
    # (x^33000*y)/x^33000 used to raise a TypeError in pvars
    with pytest.raises(DegreeOverflow):
        parse(ctx, "(x^33000*y)/x^33000")
    with pytest.raises(DegreeOverflow):
        parse(ctx, "x^16000*y") * parse(ctx, "x^16767")


def test_constant_hashes_as_its_rational(ctx):
    # equal to the number it is, so hashed as that number
    assert len({Expr.const(ctx, 1), 1}) == 1
    assert hash(Expr.const(ctx, QQ(1, 2))) == hash(QQ(1, 2))


def test_coerce(ctx):
    u = parse(ctx, "u")
    assert Expr.coerce(ctx, u) is u
    assert Expr.coerce(ctx, QQ(2, 3)) == QQ(2, 3)
    with pytest.raises(InvalidParams, match="'u' is not a number or an "
                                            "expression"):
        Expr.coerce(ctx, "u")
    with pytest.raises(VariableMismatch):
        Expr.coerce(standard_context(), u)


# --- derive: one derivation, Henrici cancellation ---------------------------


def test_derive_cancels_a_repeated_factor_free_of_the_variable(ctx):
    # d = y*(x*y+1), Dd = y^2: g = y, t = y*(y-1), and gcd(t, d) = y
    e = parse(ctx, "(x*y^2+1)/(y*(x*y+1))")
    want = parse(ctx, "(y-1)/(x*y+1)^2")
    assert e.derive({"x": 1}) == want
    assert e.diff("x") == want


def test_derive_where_the_factor_divides_its_own_image(ctx):
    # x*d/dx sends x to x: g = x^3 = d, and only the sign's 3 is left
    assert parse(ctx, "1/x^3").derive({"x": parse(ctx, "x")}) == \
        parse(ctx, "-3/x^3")


def test_derive_to_zero(ctx):
    # Euler's operator on a quotient of degree 0: t vanishes
    x, y = parse(ctx, "x"), parse(ctx, "y")
    r = parse(ctx, "x/(x+y)").derive({"x": x, "y": y})
    assert r.is_zero() and r.den == {0: 1}
    assert parse(ctx, "u").derive({"v": 1, "p": 0}).is_zero()


def test_derive_with_rational_coefficients(ctx):
    # coefficients over 2, u and u-v: their common multiple cancels
    e = parse(ctx, "h(S)*rho/(u-v)")
    coeffs = {"rho": parse(ctx, "1/2"), "u": parse(ctx, "rho/u"),
              "S": parse(ctx, "1/(u-v)")}
    want = sum((c * e.diff(n) for n, c in coeffs.items()),
               Expr.const(ctx, 0))
    assert e.derive(coeffs) == want
    assert e.derive(coeffs) == parse(
        ctx, "h(S)/(2*(u-v)) - rho^2*h(S)/(u*(u-v)^2)"
             " + rho*h'(S)/(u-v)^2")


def test_sums_cancel_only_the_shared_factor(ctx):
    # g = u; t = 2*u, so gcd(t, g) = u cancels
    assert parse(ctx, "1/(u*(u-v))") + parse(ctx, "1/(u*(u+v))") == \
        parse(ctx, "2/(u^2-v^2)")
    # coprime denominators: only the integer content cancels
    assert parse(ctx, "1/(2*u)") + parse(ctx, "1/(2*v)") == \
        parse(ctx, "(u+v)/(2*u*v)")
    # a numerator that vanishes
    zero = parse(ctx, "rho/(u*(u-v))") + parse(ctx, "-rho/(u*(u-v))")
    assert zero == 0 and zero.den == {0: 1}


def _derivation_targets(ctx):
    """Expressions with rational parts and formal applications."""
    T = bateman(ctx)
    return [*T.components(), parse(ctx, "h(S)*rho/(p+u^2)"),
            parse(ctx, "(rho*u-v)/(p*v+1)^2")]


def _generators(ctx):
    q12, q13 = parse(ctx, "q12"), parse(ctx, "q13")
    pb = ConservationFormParams.make(ctx, 1, 1, q12, q12, q13, -q13)
    pc = ConservationFormParams.make(ctx, 1, 1, q12, q12, 0, 0)
    return [*standard_basis(ctx), *constant_slices(ctx), x_h(ctx), x_f(ctx),
            case_generators("b", pb, ctx, k=parse(ctx, "k")),
            case_generators("c", pc, ctx, k1=parse(ctx, "k1"),
                            k2=parse(ctx, "k2"))]


def test_generator_apply_is_the_sum_of_partials():
    ctx = standard_context()
    targets = _derivation_targets(ctx)
    for X in _generators(ctx):
        for f in targets + list(X.slots()):
            want = Expr.const(ctx, 0)
            for name, z in zip(FIELDS, X.field_slots()):
                want = want + z * f.diff(name)
            assert X.apply(f) == want, (X.label, f)


def test_total_derivative_is_the_sum_of_partials():
    ctx = standard_context()
    exprs = _derivation_targets(ctx)
    for X in _generators(ctx):
        exprs += X.slots()
    for e in exprs:
        for c in ("x", "y"):
            want = e.diff(c)
            for f in FIELDS:
                want = want + e.diff(f) * parse(ctx, "%s_%s" % (f, c))
            assert total_derivative(e, c) == want, (e, c)
