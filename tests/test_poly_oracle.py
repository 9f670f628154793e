"""Differential tests of the integer polynomial kernel against sympy.

The gcd cases are pairs g*a1, g*b1 in up to seven of the variables
criterion 6 works in, drawn with one of four variable-set shapes: the
second polynomial's variables a proper subset of the first's (tried in
both argument orders), equal sets, overlapping sets and disjoint sets.
The arithmetic cases check padd, pmul, ppow, pderiv, the gcd's
recursive (univariate) view, Expr.collect, Expr.diff,
Expr.derive (with polynomial and with rational coefficients), the sum of
two Exprs (with and without a shared denominator factor) and
Expr.substitute in the same variables, and the canonical form of Expr.
Substituted values are drawn independently or with denominators that
share factors, and the gcd-free basis substitution reads them over is
checked on its own.
A polynomial is drawn with rational coefficients and then cleared of
their denominators, since the kernel's coefficients are integers.
"""

from itertools import combinations
from math import gcd, lcm

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import (DivisionByZeroExpr, Expr, parse,
                                substitute_all)
from recipgas.symkernel.poly import (QQ, _from_recursive, _to_recursive,
                                     mono_items, padd, pconst, pcontent,
                                     pcoprime_basis, pderiv, pdiv_exact,
                                     pgcd, pis_const, pleading_mono, pmul,
                                     pneg, ppow, pprimitive, psorted_terms,
                                     pvars)

sympy = pytest.importorskip("sympy", minversion="1.14")
pytest.importorskip("hypothesis")

from hypothesis import assume, example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import mono_pack  # noqa: E402

CTX = standard_context()
VARS = ("rho", "u", "v", "p", "q12", "q13", "lam")
INDICES = sorted(CTX.idx(n) for n in VARS)
GENS = [sympy.Symbol(CTX.names[i]) for i in INDICES]

# a numerator met while det_f of the symbolic one_param_q13 is formed,
# against its denominator, with which it is coprime
def _clear(p):
    """The rational polynomial p times the lcm of its denominators."""
    k = lcm(*(c.denominator for c in p.values())) if p else 1
    return {m: int(c * k) for m, c in p.items()}


DET_F_NUM = _clear(parse(CTX, "-rho^2*u^2*v^2*lam^4+rho^2*u^3*v*lam^3"
                              "-rho^2*u*v^3*lam^3+rho^2*u^2*v^2*lam^2"
                              "+(rho*u^2+rho*v^2)*(p+q12)*lam^2"
                              "-(rho*u^2+rho*v^2)*q13*lam"
                              "+((p+q12)*lam-q13)^2").coefficients())
DET_F_DEN = _clear(parse(CTX, "q13^2*(1+lam^2)^2").coefficients())


def _to_sympy(p):
    terms = {}
    for m, c in p.items():
        exps = dict(mono_items(m))
        terms[tuple(exps.get(i, 0) for i in INDICES)] = \
            sympy.Rational(int(c.numerator), int(c.denominator))
    return sympy.Poly.from_dict(terms, *GENS, domain="QQ")


def _from_sympy(p):
    return _clear({mono_pack([(i, e) for i, e in zip(INDICES, exps) if e]):
                   QQ(int(c.p), int(c.q)) for exps, c in p.terms()})


@st.composite
def _poly(draw, names, max_terms):
    """A polynomial in which every variable of names occurs."""
    idxs = [CTX.idx(n) for n in names]
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2) for _ in idxs]),
                  st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 3)),
        min_size=1, max_size=max_terms))
    for k in range(len(idxs)):
        if not any(exps[k] for exps, _, _ in terms):
            exps, num, den = terms[k % len(terms)]
            terms[k % len(terms)] = (exps[:k] + (1,) + exps[k + 1:],
                                     num, den)
    p = {}
    for exps, num, den in terms:
        p = padd(p, {mono_pack([(i, e) for i, e in zip(idxs, exps) if e]):
                     QQ(num, den)})
    # equal monomials may cancel
    assume(pvars(p) == set(idxs))
    return _clear(p)


@st.composite
def _factor(draw, names):
    """The common factor: a monomial in names times a polynomial in them;
    either may be 1."""
    idxs = [CTX.idx(n) for n in names]
    mono = mono_pack([(i, draw(st.integers(0, 1))) for i in idxs])
    poly = draw(_poly(names, 3)) if names and draw(st.booleans()) \
        else pconst(draw(st.integers(1, 4)))
    return pmul({mono: 1}, poly)


@st.composite
def _subset_case(draw):
    """b = g*f1*f2 in some variables, a = g*sum(X_k*m_k*c_k) in those and
    more: X_k monomials in the extra variables, m_k one of 1, f1, f2 or
    f1*f2, so that single coefficients of a share factors with b that
    the whole of a need not."""
    names = draw(st.permutations(VARS))
    na = draw(st.integers(2, 7))
    nb = draw(st.integers(1, na - 1))
    sb, extra = names[:nb], [CTX.idx(n) for n in names[nb:na]]
    g = draw(_factor(sb))
    f1, f2 = draw(_poly(sb, 2)), draw(_poly(sb, 2))
    a1 = {}
    for exps in draw(st.lists(
            st.tuples(*[st.integers(0, 2) for _ in extra]),
            min_size=2, max_size=3, unique=True)):
        x = {mono_pack([(i, e) for i, e in zip(extra, exps) if e]): 1}
        m = draw(st.sampled_from((pconst(1), f1, f2, pmul(f1, f2))))
        c = draw(_poly(sb, 2)) if draw(st.booleans()) \
            else pconst(draw(st.integers(1, 3)))
        a1 = padd(a1, pmul(x, pmul(m, c)))
    a, b = pmul(g, a1), pmul(g, pmul(f1, f2))
    assume(_shape(a, b) == "subset")
    return a, b


@st.composite
def _case(draw, shape):
    names = draw(st.permutations(VARS))
    if shape == "equal":
        sa = sb = names[:draw(st.integers(1, 4))]
    elif shape == "overlapping":
        k, ea, eb = (draw(st.integers(1, 3)) for _ in range(3))
        sa, sb = names[:k + ea], names[:k] + names[k + ea:k + ea + eb]
    else:
        ea, eb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        sa, sb = names[:ea], names[ea:ea + eb]
    shared = [n for n in sa if n in sb]
    g = draw(_factor(shared))
    a = pmul(g, draw(_poly(sa, 4)))
    b = pmul(g, draw(_poly(sb, 3)))
    return a, b


def _shape(a, b):
    va, vb = pvars(a), pvars(b)
    if va == vb:
        return "equal"
    if vb < va:
        return "subset"
    if va < vb:
        return "superset"
    return "overlapping" if va & vb else "disjoint"


def _check(shape, a, b):
    assert _shape(a, b) == shape
    A, B = _to_sympy(a), _to_sympy(b)
    g = pgcd(a, b)
    assert g == pprimitive(_from_sympy(A.gcd(B)))
    assert pcontent(g) == 1
    for p in (a, b):
        assert pmul(pdiv_exact(p, g), g) == p
    # A/B = c * want_num/want_den in lowest terms
    c, want_num, want_den = A.cancel(B)
    e = Expr(CTX, a, pconst(1)) / Expr(CTX, b, pconst(1))
    num, den = (_to_sympy(x.coefficients()) for x in e.as_numer_denom())
    assert num * want_den == den * want_num * c
    quo, rem = den.div(want_den)
    assert rem.is_zero and quo.is_ground


@pytest.mark.parametrize("swap", (False, True), ids=("subset", "superset"))
@given(case=_subset_case())
@example(case=(DET_F_NUM, DET_F_DEN))
def test_pgcd_subset_matches_sympy(swap, case):
    a, b = case
    if swap:
        _check("superset", b, a)
    else:
        _check("subset", a, b)


@pytest.mark.parametrize("shape", ("equal", "overlapping", "disjoint"))
@given(data=st.data())
def test_pgcd_matches_sympy(shape, data):
    _check(shape, *data.draw(_case(shape)))


# --- arithmetic and calculus ---------------------------------------------


def _sym(e):
    """An Expr of polynomials in VARS as a sympy expression."""
    num, den = e.as_numer_denom()
    return _to_sympy(num.coefficients()).as_expr() / \
        _to_sympy(den.coefficients()).as_expr()


def _same(e, want):
    """e equals the sympy expression want, and e is in lowest terms."""
    n, d = sympy.fraction(sympy.cancel(sympy.together(want)))
    num, den = (_to_sympy(x.coefficients()).as_expr()
                for x in e.as_numer_denom())
    assert sympy.expand(num * d - den * n) == 0
    quo, rem = sympy.div(den, d, *GENS)
    assert rem == 0 and quo.is_number


@st.composite
def _poly_in(draw, max_vars=7, max_terms=4):
    names = draw(st.permutations(VARS))[:draw(st.integers(1, max_vars))]
    return draw(_poly(names, max_terms))


@st.composite
def _ratfun(draw):
    """A quotient of two drawn polynomials over 7 or fewer of VARS."""
    num = draw(_poly_in(max_terms=3))
    den = draw(_poly_in(max_vars=4, max_terms=3)) if draw(st.booleans()) \
        else pconst(draw(st.integers(1, 6)))
    return Expr(CTX, num, pconst(1)) / Expr(CTX, den, pconst(1))


@given(a=_poly_in(), b=_poly_in())
def test_padd_matches_sympy(a, b):
    assert _to_sympy(padd(a, b)) == _to_sympy(a) + _to_sympy(b)


@given(a=_poly_in(), b=_poly_in())
def test_pmul_matches_sympy(a, b):
    assert _to_sympy(pmul(a, b)) == _to_sympy(a) * _to_sympy(b)


@given(a=_poly_in(max_vars=4, max_terms=3), n=st.integers(0, 4))
def test_ppow_matches_sympy(a, n):
    assert _to_sympy(ppow(a, n)) == _to_sympy(a) ** n


@given(a=_poly_in(), var=st.sampled_from(VARS))
def test_pderiv_matches_sympy(a, var):
    got = pderiv(a, CTX.idx(var))
    # a kernel polynomial stores no zero coefficient
    assert all(got.values())
    assert _to_sympy(got) == _to_sympy(a).diff(sympy.Symbol(var))


@given(a=_poly_in(), var=st.sampled_from(VARS))
def test_recursive_view_matches_sympy(a, var):
    # the gcd's view of a as univariate in var: its keys are the degrees
    # sympy finds, its coefficients sympy's, and it reassembles to a
    idx = CTX.idx(var)
    r = _to_recursive(a, idx)
    want = sympy.Poly(_to_sympy(a).as_expr(), sympy.Symbol(var)).as_dict()
    assert set(r) == {e for e, in want}
    for (e,), coeff in want.items():
        assert idx not in pvars(r[e])
        assert sympy.expand(_to_sympy(r[e]).as_expr() - coeff) == 0
    assert _from_recursive(r, idx) == a


@given(a=_poly_in(max_terms=6), data=st.data())
def test_collect_matches_sympy(a, data):
    # Expr.collect against sympy's Poly in the collected variables: the
    # same monomials, sorted by their (declaration index, exponent) pairs,
    # and the same coefficients over a denominator free of them
    names = data.draw(st.lists(st.sampled_from(VARS), min_size=1,
                               max_size=4, unique=True))
    rest = [n for n in VARS if n not in names]
    den = data.draw(_poly(data.draw(st.permutations(rest))[:3], 2)) \
        if rest and data.draw(st.booleans()) \
        else pconst(data.draw(st.integers(1, 6)))
    e = Expr(CTX, a, pconst(1)) / Expr(CTX, den, pconst(1))
    got = e.collect(names)
    gens = sorted(names, key=CTX.idx)
    want = sympy.Poly(_sym(e), *[sympy.Symbol(n) for n in gens]).as_dict()
    keys = sorted(tuple((CTX.idx(n), k) for n, k in zip(gens, exps) if k)
                  for exps in want)
    assert list(got) == [tuple((CTX.names[i], k) for i, k in key)
                         for key in keys]
    for exps, coeff in want.items():
        key = tuple((n, k) for n, k in zip(gens, exps) if k)
        _same(got[key], coeff)


@given(a=_poly_in(max_terms=8))
def test_render_order_matches_sympy_grlex(a):
    # graded lex in declaration order, highest first
    got = [tuple(dict(mono_items(m)).get(i, 0) for i in INDICES)
           for m, _ in psorted_terms(a)]
    assert got == [exps for exps, _ in _to_sympy(a).terms(order="grlex")]


@given(e=_ratfun(), var=st.sampled_from(VARS))
def test_expr_diff_matches_sympy(e, var):
    _same(e.diff(var), sympy.diff(_sym(e), sympy.Symbol(var)))


@st.composite
def _shared_values(draw, names):
    """Values for names whose denominators share a factor g, as the inverse
    fields of bateman and theorem_map do: g*h1 beside g*h2, and g beside
    g^2."""
    g = draw(_poly_in(max_vars=3, max_terms=2))
    assume(not pis_const(g))
    out = {}
    for n in names:
        kind = draw(st.sampled_from(("g*h", "g", "g^2", "1")))
        den = {"g": g, "g^2": pmul(g, g), "1": pconst(1)}.get(kind) or \
            pmul(g, draw(_poly_in(max_vars=3, max_terms=2)))
        num = draw(_poly_in(max_terms=3))
        out[n] = Expr(CTX, num, pconst(1)) / Expr(CTX, den, pconst(1))
    return out


@given(e=_ratfun(), e2=_ratfun(), data=st.data())
def test_expr_substitute_matches_sympy(e, e2, data):
    # a simultaneous substitution of up to three variables by polynomials
    # and quotients in VARS, drawn independently or over one shared factor
    names = data.draw(st.lists(st.sampled_from(VARS), min_size=1,
                               max_size=3, unique=True))
    if data.draw(st.booleans()):
        repl = data.draw(_shared_values(names))
    else:
        repl = {n: data.draw(_ratfun()) for n in names}
    try:
        got, got2 = e.substitute(repl), e2.substitute(repl)
    except DivisionByZeroExpr:
        assume(False)
    want = _sym(e).subs({sympy.Symbol(n): _sym(r) for n, r in repl.items()},
                        simultaneous=True)
    _same(got, want)
    _assert_canonical(got)
    assert substitute_all([e, e2], repl) == [got, got2]


@given(g=_poly_in(max_vars=3, max_terms=2),
       h1=_poly_in(max_vars=3, max_terms=2),
       h2=_poly_in(max_vars=3, max_terms=2))
def test_coprime_basis_refines_shared_factors(g, h1, h2):
    # the basis is pairwise coprime, and each input is the product of the
    # basis powers its exponents name
    polys = [pprimitive(p) for p in (pmul(g, h1), pmul(g, h2), g, pmul(g, g),
                                     pmul(h1, h2))]
    assume(not any(pis_const(p) for p in polys))
    polys = [p if p[pleading_mono(p)] > 0 else pneg(p) for p in polys]
    basis, exponents = pcoprime_basis(polys)
    for a, b in combinations([_to_sympy(q) for q in basis], 2):
        assert sympy.gcd(a, b).is_ground
    for p, exps in zip(polys, exponents):
        prod = pconst(1)
        for j, k in exps.items():
            prod = pmul(prod, ppow(basis[j], k))
        assert prod == p


def _assert_canonical(e):
    num, den = e.num, e.den
    assert all(type(c) is int for c in (*num.values(), *den.values()))
    assert gcd(*num.values(), *den.values()) == 1
    assert den[pleading_mono(den)] > 0
    assert pgcd(num, den) == pconst(1) or not num


@given(e=_ratfun(), e2=_ratfun(), k=st.sampled_from((-6, -2, -1, 2, 3, 12)),
       f=_poly_in(max_vars=3, max_terms=2))
def test_expr_canonical_form(e, e2, k, f):
    # integer numerator and denominator, joint content 1, positive leading
    # denominator coefficient, no common factor; sums, products and
    # quotients keep that form
    for x in (e, e + e2, e - e2, e * e2, e / e2, e + k, e * k, e / k,
              e / 2 + e / 6):
        _assert_canonical(x)
    assert e / 2 + e / 6 == e * 2 / 3
    # a/b is (k*a)/(k*b) and (f*a)/(f*b), structurally
    for mul in ({0: k}, pmul({0: k}, f)):
        other = Expr(CTX, pmul(mul, e.num), pmul(mul, e.den))
        assert (other.num, other.den) == (e.num, e.den)
        assert other == e and hash(other) == hash(e)


# --- derive and Henrici sums ------------------------------------------------


def _renormalized(e):
    """e rebuilt from its numerator and denominator by a full
    normalisation."""
    other = Expr(CTX, dict(e.num), dict(e.den))
    assert (other.num, other.den) == (e.num, e.den)


@given(e=_ratfun(), data=st.data())
def test_derive_with_polynomial_coefficients_matches_sympy(e, data):
    names = data.draw(st.lists(st.sampled_from(VARS), min_size=1,
                               max_size=4, unique=True))
    coeffs = {n: Expr(CTX, data.draw(_poly_in(max_vars=3, max_terms=2)),
                      pconst(1)) for n in names}
    got = e.derive(coeffs)
    want = sum(_sym(c) * sympy.diff(_sym(e), sympy.Symbol(n))
               for n, c in coeffs.items())
    _same(got, want)
    _assert_canonical(got)
    _renormalized(got)


@given(e=_ratfun(), data=st.data())
def test_derive_with_rational_coefficients_matches_sympy(e, data):
    names = data.draw(st.lists(st.sampled_from(VARS), min_size=1,
                               max_size=3, unique=True))
    coeffs = {n: data.draw(_ratfun()) for n in names}
    got = e.derive(coeffs)
    want = sum(_sym(c) * sympy.diff(_sym(e), sympy.Symbol(n))
               for n, c in coeffs.items())
    _same(got, want)
    _assert_canonical(got)
    _renormalized(got)


@given(e=_ratfun(), e2=_ratfun(), g=_poly_in(max_vars=3, max_terms=2),
       shared=st.booleans())
def test_sum_matches_sympy(e, e2, g, shared):
    # with shared, the terms e/g and e2 - e/g have denominators that share
    # the factor g, and their sum e2 cancels it
    a, b = e, e2
    if shared:
        assume(g)
        a = e / Expr(CTX, g, pconst(1))
        b = e2 - a
    got = a + b
    _same(got, _sym(a) + _sym(b))
    _assert_canonical(got)
    _renormalized(got)
    assert not shared or got == e2
