"""Differential tests of the polynomial gcd against sympy.

Each case is a pair g*a1, g*b1 in up to seven of the variables criterion 6
works in, drawn with one of four variable-set shapes: the second
polynomial's variables a proper subset of the first's (tried in both
argument orders), equal sets, overlapping sets and disjoint sets.
"""

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import Expr, parse
from recipgas.symkernel.poly import (QQ, mono_items, mono_pack, padd, pconst,
                                     pcontent, pdiv_exact, pgcd, pmul,
                                     pprimitive, pvars)

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
DET_F_NUM = parse(CTX, "-rho^2*u^2*v^2*lam^4+rho^2*u^3*v*lam^3"
                       "-rho^2*u*v^3*lam^3+rho^2*u^2*v^2*lam^2"
                       "+(rho*u^2+rho*v^2)*(p+q12)*lam^2"
                       "-(rho*u^2+rho*v^2)*q13*lam"
                       "+((p+q12)*lam-q13)^2").coefficients()
DET_F_DEN = parse(CTX, "q13^2*(1+lam^2)^2").coefficients()


def _to_sympy(p):
    terms = {}
    for m, c in p.items():
        exps = dict(mono_items(m))
        terms[tuple(exps.get(i, 0) for i in INDICES)] = \
            sympy.Rational(int(c.numerator), int(c.denominator))
    return sympy.Poly.from_dict(terms, *GENS, domain="QQ")


def _from_sympy(p):
    return {mono_pack([(i, e) for i, e in zip(INDICES, exps) if e]):
            QQ(int(c.p), int(c.q)) for exps, c in p.terms()}


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
    return p


@st.composite
def _factor(draw, names):
    """The common factor: a monomial in names times a polynomial in them;
    either may be 1."""
    idxs = [CTX.idx(n) for n in names]
    mono = mono_pack([(i, draw(st.integers(0, 1))) for i in idxs])
    poly = draw(_poly(names, 3)) if names and draw(st.booleans()) \
        else pconst(draw(st.integers(1, 4)))
    return pmul({mono: QQ(1)}, poly)


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
        x = {mono_pack([(i, e) for i, e in zip(extra, exps) if e]): QQ(1)}
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
