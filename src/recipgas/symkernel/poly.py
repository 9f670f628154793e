"""Sparse multivariate polynomials over the integers.

A polynomial is a dict mapping packed monomials to nonzero Python int
coefficients; exact rationals (QQ) appear only where expr.py meets the
rest of the program.  Pseudo-division and the subresultant PRS are exact
over an integral domain, so every gcd and exact division below stays in
Z[x].

A monomial is a single integer: 16-bit fields hold the exponent of each
variable (variable i at bits 16*(i+1)..), and the lowest field
accumulates the total degree.  Monomial multiplication is integer
addition; divisibility uses a guard-bit trick.  The total degree, and so
every exponent, stays below 2^15: pvar, pmul and ppow raise
DegreeOverflow before a field could carry into its neighbour.

Plain integer comparison of packed monomials is an admissible term order
(total, multiplication-compatible, with 1 minimal), used internally for
division and canonical scaling; rendering sorts graded-lexicographically
by declaration order.
"""

from __future__ import annotations

from collections import Counter
# the kernel's boundary type for exact rationals (see expr.py)
from fractions import Fraction as QQ
from math import gcd as _igcd

from .errors import DegreeOverflow

Mono = int
Poly = dict

MONO_ONE: Mono = 0
_FB = 16
_MASK = 0xFFFF
MAX_DEGREE = 0x7FFF
_GUARDS: dict = {}


def _guard(nwords: int) -> int:
    g = _GUARDS.get(nwords)
    if g is None:
        g = 0
        for i in range(nwords):
            g |= 0x8000 << (_FB * i)
        _GUARDS[nwords] = g
    return g


def _check_degree(total: int) -> None:
    if total > MAX_DEGREE:
        raise DegreeOverflow("total degree %d exceeds the kernel limit %d"
                             % (total, MAX_DEGREE))


def pdegree(p: Poly) -> int:
    """Total degree; 0 for a constant or zero polynomial."""
    return max(m & _MASK for m in p) if p else 0


def mono_items(m: Mono):
    """Decoded (variable_index, exponent) pairs, ascending index."""
    m >>= _FB
    i = 0
    out = []
    while m:
        e = m & _MASK
        if e:
            out.append((i, e))
        m >>= _FB
        i += 1
    return out


def mono_div(m1: Mono, m2: Mono):
    """m1 / m2, or None when m2 does not divide m1."""
    if m1 < m2:
        return None
    nwords = (m1.bit_length() + _FB - 1) // _FB
    g = _guard(nwords)
    t = (m1 | g) - m2
    if (t & g) != g:
        return None
    return t - g


def pconst(c: int) -> Poly:
    return {MONO_ONE: c} if c else {}


def pvar(idx: int, exp: int = 1) -> Poly:
    _check_degree(exp)
    return {(exp << (_FB * (idx + 1))) + exp: 1}


def pis_zero(p: Poly) -> bool:
    return not p


def pis_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and MONO_ONE in p)


def _grlex_key(term) -> list:
    """The 16-bit fields of a term's monomial from the lowest: the total
    degree, then the exponents in declaration order (no trailing zeros)."""
    m, words = term[0], []
    while m:
        words.append(m & _MASK)
        m >>= _FB
    return words


def psorted_terms(p: Poly):
    """The terms in rendering order: graded lex by declaration order,
    highest first."""
    return sorted(p.items(), key=_grlex_key, reverse=True)


def pleading_mono(p: Poly) -> Mono:
    """Leading monomial under the internal (packed-integer) order."""
    return max(p)


def padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    return padd_into(dict(a), b)


def padd_into(r: Poly, b: Poly) -> Poly:
    """r + b, written into r and returned."""
    for m, c in b.items():
        s = r.get(m)
        if s is None:
            r[m] = c
        else:
            s = s + c
            if s:
                r[m] = s
            else:
                del r[m]
    return r


def pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def psub(a: Poly, b: Poly) -> Poly:
    if not b:
        return dict(a)
    r = dict(a)
    for m, c in b.items():
        s = r.get(m)
        if s is None:
            r[m] = -c
        else:
            s = s - c
            if s:
                r[m] = s
            else:
                del r[m]
    return r


def pscale(a: Poly, c) -> Poly:
    if not c:
        return {}
    return {m: cc * c for m, cc in a.items()}


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1:
        (m1, c1), = a.items()
        if m1 == MONO_ONE:
            return pscale(b, c1)
        _check_degree((m1 & _MASK) + pdegree(b))
        return {m1 + m2: c1 * c2 for m2, c2 in b.items()}
    if len(b) == 1:
        (m2, c2), = b.items()
        if m2 == MONO_ONE:
            return pscale(a, c2)
        _check_degree(pdegree(a) + (m2 & _MASK))
        return {m1 + m2: c1 * c2 for m1, c1 in a.items()}
    _check_degree(pdegree(a) + pdegree(b))
    r: Poly = {}
    get = r.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = get(m)
            if s is None:
                r[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    r[m] = s
                else:
                    del r[m]
    return r


def ppow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power on polynomial")
    _check_degree(pdegree(a) * n)
    r = pconst(1)
    base = a
    while n:
        if n & 1:
            r = pmul(r, base)
        n >>= 1
        if n:
            base = pmul(base, base)
    return r


def pderiv(a: Poly, idx: int) -> Poly:
    # m -> m / x_idx is one-to-one on the monomials that hold x_idx
    shift = _FB * (idx + 1)
    dec = (1 << shift) + 1
    return {m - dec: c * e for m, c in a.items()
            if (e := (m >> shift) & _MASK)}


def pvars(a: Poly) -> set:
    s: set = set()
    seen = 0
    for m in a:
        seen |= m
    seen >>= _FB
    i = 0
    while seen:
        if seen & _MASK:
            s.add(i)
        seen >>= _FB
        i += 1
    return s


def pdegree_in(a: Poly, idx: int) -> int:
    shift = _FB * (idx + 1)
    d = 0
    for m in a:
        e = (m >> shift) & _MASK
        if e > d:
            d = e
    return d


# --- exact division and gcd ---------------------------------------------


def pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Quotient a/b over Z, assuming b divides a exactly; raises ValueError
    otherwise, also when a coefficient quotient is not an integer."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if pis_const(b):
        d = b[MONO_ONE]
        q: Poly = {}
        for m, c in a.items():
            qc = c // d
            if qc * d != c:
                raise ValueError("inexact polynomial division")
            q[m] = qc
        return q
    q = {}
    rem = dict(a)
    lmb = max(b)
    lcb = b[lmb]
    while rem:
        lma = max(rem)
        t = mono_div(lma, lmb)
        if t is None:
            raise ValueError("inexact polynomial division")
        c, r = divmod(rem[lma], lcb)
        if r:
            raise ValueError("inexact polynomial division")
        q[t] = c
        for m, cb in b.items():
            mm = m + t
            s = rem.get(mm)
            if s is None:
                rem[mm] = -cb * c
            else:
                s = s - cb * c
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
    return q


def pcontent(a: Poly) -> int:
    """Integer content of a nonzero polynomial, carrying the sign of the
    internal leading term."""
    cont = _igcd(*a.values())
    return -cont if a[max(a)] < 0 else cont


def pprimitive(a: Poly) -> Poly:
    """Divide by the content: coprime coefficients, leading one positive."""
    if not a:
        return {}
    cont = pcontent(a)
    if cont == 1:
        return dict(a)
    return {m: c // cont for m, c in a.items()}


def _mono_gcd(m1: Mono, m2: Mono) -> Mono:
    """Componentwise minimum of the exponent words of two monomials
    without their degree field (see _mono_content)."""
    g = _guard((max(m1, m2).bit_length() + _FB - 1) // _FB)
    # guard bit of a field survives the subtraction where m1 >= m2 there
    keep2 = (((m1 | g) - m2) & g) >> (_FB - 1)
    keep2 *= _MASK
    return (m2 & keep2) | (m1 & ~keep2)


def _with_degree(words: int) -> Mono:
    """The monomial of exponent words shifted down by one field.  As
    2^16 = 1 mod 2^16 - 1, the words leave the sum of their fields, the
    total degree (below 2^15), as their remainder mod 2^16 - 1."""
    return (words << _FB) + words % _MASK


def _mono_content(a: Poly) -> Mono:
    """Largest monomial dividing every term: the componentwise minimum of
    the packed exponent words, unpacked once for its total degree."""
    it = iter(a)
    common = next(it) >> _FB
    for m in it:
        if not common:
            return MONO_ONE
        common = _mono_gcd(common, m >> _FB)
    return _with_degree(common) if common else MONO_ONE


def _to_recursive(a: Poly, idx: int) -> dict:
    """View as univariate in variable idx with Poly coefficients."""
    shift = _FB * (idx + 1)
    return {extra >> shift: c for extra, c in pcoefficients(a, (idx,)).items()}


def _from_recursive(r: dict, idx: int) -> Poly:
    # the coefficients are free of variable idx, so no two terms meet
    shift = _FB * (idx + 1)
    return {m + (e << shift) + e: c
            for e, p in r.items() for m, c in p.items()}


def _rdegree(r: dict) -> int:
    return max(r) if r else -1


def _rscale_poly(r: dict, p: Poly) -> dict:
    return {e: pmul(c, p) for e, c in r.items()}


def _rsub(r1: dict, r2: dict) -> dict:
    out = dict(r1)
    for e, p in r2.items():
        s = psub(out.get(e, {}), p)
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _rdiv_exact_poly(r: dict, p: Poly) -> dict:
    return {e: pdiv_exact(c, p) for e, c in r.items()}


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b."""
    da, db = _rdegree(a), _rdegree(b)
    lcb = b[db]
    steps = da - db + 1
    r = dict(a)
    while True:
        dr = _rdegree(r)
        if dr < db:
            break
        lcr = r[dr]
        shifted = {e + dr - db: pmul(c, lcr) for e, c in b.items()}
        r = _rsub(_rscale_poly(r, lcb), shifted)
        steps -= 1
    if steps > 0 and r:
        scale = ppow(lcb, steps)
        r = {e: pmul(c, scale) for e, c in r.items()}
    return r


def _rcontent(r: dict) -> Poly:
    cont: Poly = {}
    for p in r.values():
        cont = pgcd(cont, p)
        if pis_const(cont) and cont:
            return pconst(1)
    return cont if cont else pconst(1)


def _subresultant_gcd(f: dict, g: dict) -> dict:
    """Primitive gcd of primitive recursive polynomials (subresultant PRS)."""
    if _rdegree(f) < _rdegree(g):
        f, g = g, f
    h = pconst(1)
    gg = pconst(1)
    while True:
        delta = _rdegree(f) - _rdegree(g)
        r = _prem(f, g)
        if not r:
            break
        if _rdegree(r) == 0:
            return {0: pconst(1)}
        divisor = pmul(gg, ppow(h, delta))
        f, g = g, _rdiv_exact_poly(r, divisor)
        gg = f[_rdegree(f)]
        if delta == 1:
            h = dict(gg)
        elif delta > 1:
            h = pdiv_exact(ppow(gg, delta), ppow(h, delta - 1))
    cont = _rcontent(g)
    return {e: pdiv_exact(c, cont) for e, c in g.items()}


def _try_div(a: Poly, b: Poly) -> bool:
    """True when b divides a exactly over Z."""
    try:
        pdiv_exact(a, b)
        return True
    except ValueError:
        return False


def pcoefficients(a: Poly, idxs) -> dict:
    """a viewed as a polynomial in the variables idxs: {monomial in idxs,
    without its degree field: coefficient, a Poly in the other
    variables}."""
    mask = 0
    for i in idxs:
        mask |= _MASK << (_FB * (i + 1))
    groups: dict = {}
    for m, c in a.items():
        extra = m & mask
        coeff = groups.get(extra)
        if coeff is None:
            coeff = groups[extra] = {}
        coeff[m - extra] = c
    out = {}
    for extra, coeff in groups.items():
        # m - extra still counts the degree of extra in its lowest field,
        # which is extra mod 2^16 - 1 (see _with_degree)
        deg = extra % _MASK
        out[extra] = {m - deg: c for m, c in coeff.items()} if deg else coeff
    return out


def pgcd(a: Poly, b: Poly) -> Poly:
    """Primitive greatest common divisor (positive leading coefficient)."""
    if not a:
        return pprimitive(b)
    if not b:
        return pprimitive(a)
    if pis_const(a) or pis_const(b):
        return pconst(1)
    if a == b:
        return pprimitive(a)
    # a divisor over Q divides over Z once its content is removed
    if len(b) <= len(a):
        pb = pprimitive(b)
        if _try_div(a, pb):
            return pb
    if len(a) < len(b):
        pa = pprimitive(a)
        if _try_div(b, pa):
            return pa

    ma, mb = _mono_content(a), _mono_content(b)
    common_mono = _with_degree(_mono_gcd(ma >> _FB, mb >> _FB)) \
        if ma and mb else MONO_ONE
    if ma or mb:
        if ma:
            a = {m - ma: c for m, c in a.items()}
        if mb:
            b = {m - mb: c for m, c in b.items()}
        if pis_const(a) or pis_const(b):
            return {common_mono: 1} if common_mono else pconst(1)

    va, vb = pvars(a), pvars(b)
    shared = va & vb
    if not shared:
        g = pconst(1)
    elif va != vb and shared in (va, vb):
        # the gcd lies in the smaller variable set, so it is the gcd of the
        # smaller polynomial with every coefficient of the larger one over
        # the extra variables
        if shared == va:
            a, b, va, vb = b, a, vb, va
        g = b
        for coeff in sorted(pcoefficients(a, va - vb).values(), key=len):
            g = pgcd(g, coeff)
            if pis_const(g):
                break
    else:
        main = min(shared, key=lambda v: pdegree_in(a, v) + pdegree_in(b, v))
        ra, rb = _to_recursive(a, main), _to_recursive(b, main)
        ca, cb = _rcontent(ra), _rcontent(rb)
        pa = _rdiv_exact_poly(ra, ca) if not pis_const(ca) else ra
        pb = _rdiv_exact_poly(rb, cb) if not pis_const(cb) else rb
        gc = pgcd(ca, cb)
        gr = _subresultant_gcd(pa, pb)
        g = pprimitive(pmul(gc, _from_recursive(gr, main)))

    if common_mono:
        g = {m + common_mono: c for m, c in g.items()}
    return g


def pcoprime_basis(polys):
    """A gcd-free basis of primitive polynomials with positive leading
    coefficients, by factor refinement (Bach, Driscoll & Shallit, "Factor
    refinement", J. Algorithms 15, 1993): (basis, exponents), where the
    basis polynomials are pairwise coprime and polys[i] is the product of
    basis[j]^e over exponents[i].items().  Two parts that share a factor g
    are replaced by g and their cofactors until no two parts do, so the
    exponents follow from the splits, not from trial division."""
    parts: list = []           # [(poly, Counter {input index: exponent})]
    pending = [(p, Counter({i: 1})) for i, p in enumerate(polys)]
    while pending:
        q, owners = pending.pop()
        for k, (b, bowners) in enumerate(parts):
            if b == q:
                bowners.update(owners)
                break
            g = pgcd(b, q)
            if not pis_const(g):
                del parts[k]
                pending.append((g, bowners + owners))
                for r, rowners in ((pdiv_exact(b, g), bowners),
                                   (pdiv_exact(q, g), owners)):
                    if not pis_const(r):
                        pending.append((r, rowners))
                break
        else:
            parts.append((q, owners))
    exponents = [{} for _ in polys]
    for j, (_, owners) in enumerate(parts):
        for i, e in owners.items():
            exponents[i][j] = e
    return [b for b, _ in parts], exponents
