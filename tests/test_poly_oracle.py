"""Differential tests of the integer polynomial kernel against sympy.

The gcd cases are pairs g*a1, g*b1 in up to seven of the variables
criterion 6 works in, drawn with one of four variable-set shapes: the
second polynomial's variables a proper subset of the first's (tried in
both argument orders), equal sets, overlapping sets and disjoint sets.
The arithmetic cases check padd, pmul, ppow, pderiv, Expr.diff and
Expr.substitute in the same variables, and the canonical form of Expr.
A polynomial is drawn with rational coefficients and then cleared of
their denominators, since the kernel's coefficients are integers.
"""

from math import gcd, lcm

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import DivisionByZeroExpr, Expr, parse
from recipgas.symkernel.poly import (QQ, mono_items, mono_pack, padd, pconst,
                                     pcontent, pderiv, pdiv_exact, pgcd,
                                     pleading_mono, pmul, ppow, pprimitive,
                                     pvars)

sympy = pytest.importorskip("sympy", minversion="1.14")
pytest.importorskip("hypothesis")

from hypothesis import assume, example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
    assert _to_sympy(got) == _to_sympy(a).diff(sympy.Symbol(var))


@given(e=_ratfun(), var=st.sampled_from(VARS))
def test_expr_diff_matches_sympy(e, var):
    _same(e.diff(var), sympy.diff(_sym(e), sympy.Symbol(var)))


@given(e=_ratfun(), data=st.data())
def test_expr_substitute_matches_sympy(e, data):
    # a simultaneous substitution of up to three variables by polynomials
    # and quotients in VARS
    names = data.draw(st.lists(st.sampled_from(VARS), min_size=1,
                               max_size=3, unique=True))
    repl = {n: data.draw(_ratfun()) for n in names}
    try:
        got = e.substitute(repl)
    except DivisionByZeroExpr:
        assume(False)
    want = _sym(e).subs({sympy.Symbol(n): _sym(r) for n, r in repl.items()},
                        simultaneous=True)
    _same(got, want)


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
