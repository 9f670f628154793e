"""Canonical symbolic expressions: ratios of multivariate polynomials over Q.

An Expr stores an integer numerator and an integer denominator, kept in
canonical form at construction: they share no polynomial factor and no
integer content, and the leading denominator coefficient (in the kernel's
packed term order) is positive.  Mathematically equal expressions in this
class are therefore structurally equal, and comparison with zero decides
identities.  Exact rationals (QQ) appear only at the boundary: constants
in, and as_rational, coefficients, primitive, as_numer_denom and the
rendered text out, all of which read the expression with a monic
denominator.

Formal function applications (h(S), F(S), G(rho,S), tan(x), ...) are opaque
generators; differentiation relates them to their derivative markers via the
chain rule, and nothing else is assumed about them.

Every derivative is one derivation, Expr.derive: a partial derivative,
a total derivative D_x and a generator's action on a function are each
a sum of coefficients times partial derivatives, computed over one
common denominator with one quotient rule.  Sums and derivatives cancel
only the factor that can be shared (Henrici, "A subroutine for
computations with rational numbers", J. ACM 3, 1956; Knuth, TAOCP vol.
2, 4.5.1): a gcd against the known common factor of the denominators,
not against the whole product.
"""

from __future__ import annotations

import numbers
from math import gcd, lcm

from .context import Context
from .errors import (DivisionByZeroExpr, InvalidParams, NotPolynomialInVars,
                     UnboundSymbol, UnknownVariable, VariableMismatch)
from .numeric import compile_exprs
from .poly import (MONO_ONE, QQ, Poly, mono_items, padd,
                   padd_into, pcoefficients, pconst, pcontent,
                   pcoprime_basis, pderiv, pdiv_exact, pgcd, pis_const,
                   pis_zero, pleading_mono, pmul, pneg, ppow, pprimitive,
                   pscale, psorted_terms, psub, pvar, pvars)

_POLY_ONE = pconst(1)


class Expr:
    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: Context, num: Poly, den: Poly, _normalized=False):
        if not _normalized:
            num, den = _normalize(num, den)
        self.ctx = ctx
        self.num = num
        self.den = den

    # --- constructors ---------------------------------------------------

    @staticmethod
    def const(ctx: Context, value) -> "Expr":
        q = QQ(value)
        return Expr(ctx, pconst(q.numerator), {MONO_ONE: q.denominator},
                    _normalized=True)

    @staticmethod
    def coerce(ctx: Context, value) -> "Expr":
        """value as an Expr of ctx: an Expr of ctx as it is, a number as a
        constant; a string raises InvalidParams and an Expr of another
        context VariableMismatch."""
        if isinstance(value, Expr):
            if value.ctx is not ctx:
                raise VariableMismatch("expressions from different contexts")
            return value
        if isinstance(value, str):
            raise InvalidParams("%r is not a number or an expression" % value)
        return Expr.const(ctx, value)

    @staticmethod
    def var(ctx: Context, name: str) -> "Expr":
        return Expr(ctx, pvar(ctx.idx(name)), _POLY_ONE, _normalized=True)

    @staticmethod
    def function(ctx: Context, fname: str, *args, orders=None) -> "Expr":
        args = tuple(Expr.coerce(ctx, a) for a in args)
        if orders is None:
            orders = (0,) * len(args)
        idx = ctx.atom_slot(fname, tuple(orders), args)
        return Expr(ctx, pvar(idx), _POLY_ONE, _normalized=True)

    # --- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return pis_zero(self.num)

    def is_constant(self) -> bool:
        return pis_const(self.num) and pis_const(self.den)

    def is_polynomial(self) -> bool:
        return pis_const(self.den)

    def as_rational(self):
        """The QQ value of a constant expression."""
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        if pis_zero(self.num):
            return QQ(0)
        return QQ(self.num[MONO_ONE], self.den[MONO_ONE])

    # --- polynomial views -------------------------------------------------

    def as_numer_denom(self):
        """(numerator, denominator) as polynomial Exprs; the denominator
        is monic."""
        lc = {MONO_ONE: _leading(self.den)}
        return Expr(self.ctx, self.num, lc), Expr(self.ctx, self.den, lc)

    def primitive(self):
        """(c, P): the numerator is c*P, and P is a polynomial with coprime
        integer coefficients whose leading one (in the kernel's term
        order) is positive.  The zero expression gives (0, 0)."""
        if not self.num:
            return QQ(0), self
        c = QQ(pcontent(self.num), _leading(self.den))
        return c, _poly(self.ctx, pprimitive(self.num))

    def coefficients(self) -> dict:
        """{monomial: QQ} of a polynomial; the monomial keys are opaque,
        equal for equal monomials of one Context."""
        if not pis_const(self.den):
            raise NotPolynomialInVars("not a polynomial: %s" % self)
        d = self.den[MONO_ONE]
        return {m: QQ(c, d) for m, c in self.num.items()}

    def free_variables(self) -> set:
        return {self.ctx.names[i]
                for i in pvars(self.num) | pvars(self.den)}

    def depends_on(self, *names) -> bool:
        idxs = {self.ctx.idx(n) for n in names}
        return bool((pvars(self.num) | pvars(self.den)) & idxs)

    # --- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expr):
            if other.ctx is not self.ctx:
                raise VariableMismatch("expressions from different contexts")
            return other
        return Expr.const(self.ctx, other)

    def __add__(self, other):
        """Henrici's sum: over g = gcd(b, d), a/b + c/d is t/(b*(d/g))
        with t = a*(d/g) + c*(b/g).  A factor of b/g or d/g divides one
        term of t and not the other, so only gcd(t, g) can cancel."""
        other = self._coerce(other)
        b, d = self.den, other.den
        if b == d:   # a sum over 1 is canonical as it is
            return Expr(self.ctx, padd(self.num, other.num), b,
                        _normalized=b == _POLY_ONE)
        if not self.num:
            return other
        if not other.num:
            return self
        g = pgcd(b, d)
        if pis_const(g):
            t = padd(pmul(self.num, d), pmul(other.num, b))
            return _lowest(self.ctx, t, pmul(b, d))
        dg = pdiv_exact(d, g)
        t = padd(pmul(self.num, dg), pmul(other.num, pdiv_exact(b, g)))
        if t:
            h = pgcd(t, g)
            if not pis_const(h):
                t, b = pdiv_exact(t, h), pdiv_exact(b, h)
        return _lowest(self.ctx, t, pmul(b, dg))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.ctx, pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == _POLY_ONE and d2 == _POLY_ONE:   # a product of polynomials
            return Expr(self.ctx, pmul(n1, n2), d1, _normalized=True)
        if not (n1 and n2):
            return Expr(self.ctx, {}, _POLY_ONE, _normalized=True)
        # with n1 cancelled against d2 and n2 against d1, the product of
        # two canonical pairs is canonical, its leading denominator
        # coefficient a product of positive ones
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return Expr(self.ctx, pmul(n1, n2), pmul(d1, d2), _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZeroExpr("division by zero")
        return self * Expr(other.ctx, other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        if n == 0:
            return Expr.const(self.ctx, 1)
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroExpr("0 ** negative")
            return Expr(self.ctx, ppow(self.den, -n), ppow(self.num, -n))
        return Expr(self.ctx, ppow(self.num, n), ppow(self.den, n))

    def __eq__(self, other):
        if isinstance(other, numbers.Rational):
            other = Expr.const(self.ctx, other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant():     # as the rational it equals
            return hash(self.as_rational())
        return hash((frozenset(self.num.items()),
                     frozenset(self.den.items())))

    # --- calculus -------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Partial derivative; formal functions follow the chain rule."""
        return self.derive({name: 1})

    def derive(self, coeffs: dict) -> "Expr":
        """The derivation sum c * d(self)/d(name) over coeffs = {name: c},
        c an Expr or a number; formal functions follow the chain rule."""
        ctx = self.ctx
        rates = {}
        for name, c in coeffs.items():
            idx = ctx.idx(name)
            c = self._coerce(c)
            if c.num:
                rates[idx] = c
        return _derive(self, rates)

    # --- substitution ---------------------------------------------------

    def substitute(self, bindings: dict) -> "Expr":
        """Simultaneous substitution of variables and formal applications;
        see substitute_all."""
        return substitute_all([self], bindings)[0]

    # --- coefficient extraction ------------------------------------------

    def collect(self, monomial_vars) -> dict:
        """Complete coefficient map over monomials in the given variables.

        Returns {mono_key: Expr}; mono_key is a tuple of (name, exponent)
        pairs in declaration order, () for the free term.  The denominator
        must not involve the collected variables.
        """
        ctx = self.ctx
        idxs = {ctx.idx(n) for n in monomial_vars}
        if pvars(self.den) & idxs:
            raise NotPolynomialInVars(
                "denominator involves %s" % sorted(monomial_vars))
        groups = sorted((mono_items(extra), coeff) for extra, coeff
                        in pcoefficients(self.num, idxs).items())
        return {tuple((ctx.names[v], e) for v, e in tgt):
                Expr(ctx, coeff, self.den) for tgt, coeff in groups}

    # --- numeric evaluation ----------------------------------------------

    def eval_numeric(self, assignment: dict) -> float:
        """Float value at a point; see compile_exprs."""
        return float(compile_exprs([self])(assignment)[0])

    def eval_rational(self, assignment: dict):
        """Exact evaluation at a rational point.

        Every free variable, including formal-function atoms (by display
        name), must be assigned a rational value; UnboundSymbol names those
        that are not, before anything is substituted.
        """
        missing = sorted(self.free_variables() - set(assignment))
        if missing:
            raise UnboundSymbol(*missing)
        bindings = {n: Expr.const(self.ctx, v) for n, v in assignment.items()}
        return self.substitute(bindings).as_rational()

    # --- rendering --------------------------------------------------------

    def _poly_str(self, p: Poly, lc: int) -> str:
        """p/lc, so that the denominator reads as monic."""
        if pis_zero(p):
            return "0"
        parts = []
        for m, c in psorted_terms(p):
            if lc != 1:
                c = QQ(c, lc)
            factors = []
            for v, e in mono_items(m):
                nm = self.ctx.names[v]
                factors.append(nm if e == 1 else "%s^%d" % (nm, e))
            mono = "*".join(factors)
            if not mono:
                term = _coeff_str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (_coeff_str(c), mono)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __str__(self):
        lc = _leading(self.den)
        ns = self._poly_str(self.num, lc)
        if pis_const(self.den):
            return ns
        ds = self._poly_str(self.den, lc)
        nw = ns if len(self.num) <= 1 else "(%s)" % ns
        return "%s/(%s)" % (nw, ds)

    __repr__ = __str__


def _coeff_str(c) -> str:
    if c.denominator == 1:
        return _int_str(c.numerator)
    return "%s/%s" % (_int_str(c.numerator), _int_str(c.denominator))


# str() refuses an integer past Python's 4300-digit limit; pieces of at
# most _DIGITS digits stay inside it
_DIGITS = 4000
_PIECE = 10 ** _DIGITS


def _int_str(n: int) -> str:
    """The exact decimal text of n, written piece by piece."""
    if -_PIECE < n < _PIECE:
        return str(n)
    high, low = divmod(abs(n), _PIECE)
    return "-" * (n < 0) + _int_str(high) + str(low).zfill(_DIGITS)


def _leading(p: Poly) -> int:
    """The leading coefficient in the kernel's term order."""
    return p[pleading_mono(p)]


def _poly(ctx: Context, p: Poly) -> Expr:
    """The polynomial p as an Expr; over 1 it is canonical as it is."""
    return Expr(ctx, p, _POLY_ONE, _normalized=True)


def _cancel(num: Poly, den: Poly):
    """num/g and den/g for their gcd g, a polynomial times an integer."""
    if not (pis_const(num) or pis_const(den)):
        g = pgcd(num, den)
        if not pis_const(g):
            num, den = pdiv_exact(num, g), pdiv_exact(den, g)
    return _cancel_content(num, den)


def _cancel_content(num: Poly, den: Poly):
    """num and den divided by the integer gcd of their coefficients."""
    c = gcd(*den.values())
    if c != 1:
        c = gcd(c, *num.values())
        if c != 1:
            num = {m: x // c for m, x in num.items()}
            den = {m: x // c for m, x in den.items()}
    return num, den


def _lowest(ctx: Context, num: Poly, den: Poly) -> Expr:
    """num/den for a num and den that share no polynomial factor, den with
    a positive leading coefficient: canonical once the integer content is
    cancelled."""
    if not num:
        return Expr(ctx, {}, _POLY_ONE, _normalized=True)
    return Expr(ctx, *_cancel_content(num, den), _normalized=True)


def _normalize(num: Poly, den: Poly):
    if pis_zero(den):
        raise DivisionByZeroExpr("denominator is identically zero")
    if pis_zero(num):
        return {}, _POLY_ONE
    num, den = _cancel(num, den)
    if _leading(den) < 0:
        return pneg(num), pneg(den)
    return num, den


def _derive(e: Expr, rates: dict) -> Expr:
    """D(e) for the derivation D with D(x_i) = rates[i] (nonzero Exprs)
    on the variables and the chain rule on formal applications.

    D's value on each variable of e is found once.  With B a common
    multiple of those values' denominators, B*D has polynomial values,
    and D(e) is (1/B) * (B*D)(e), which the product puts in lowest
    terms."""
    ctx = e.ctx
    n, d = e.num, e.den
    nvars, dvars = pvars(n), pvars(d)
    images = {}
    # the numerator's applications first, so that derivative markers
    # take their slots in the same order as in one partial derivative
    for j in sorted(nvars) + sorted(dvars - nvars):
        w = rates.get(j)
        info = ctx.atoms.get(j)
        if info is not None:
            for pos, arg in enumerate(info.args):
                da = _derive(arg, rates)
                if not da.num:
                    continue
                orders = list(info.orders)
                orders[pos] += 1
                marker = Expr.function(ctx, info.fname, *info.args,
                                       orders=tuple(orders))
                w = marker * da if w is None else w + marker * da
        if w is not None and w.num:
            images[j] = w
    if not images:
        return Expr(ctx, {}, _POLY_ONE, _normalized=True)
    B = _POLY_ONE
    for w in images.values():
        B = _common_multiple(B, w.den)
    polys = {j: w.num if w.den == B else pmul(w.num, pdiv_exact(B, w.den))
             for j, w in images.items()}
    out = _quotient_rule(ctx, n, d, _apply(n, nvars, polys),
                         _apply(d, dvars, polys))
    if B == _POLY_ONE:
        return out
    return out * Expr(ctx, _POLY_ONE, B, _normalized=True)


def _common_multiple(a: Poly, b: Poly) -> Poly:
    """A common multiple of a and b over Z, with a positive leading
    coefficient when theirs are positive."""
    if a == b or b == _POLY_ONE:
        return a
    return pmul(a, pdiv_exact(b, pgcd(a, b)))


def _apply(p: Poly, pv: set, images: dict) -> Poly:
    """The sum of dp/dx_j * images[j] over the variables j of p, pv."""
    out: Poly = {}
    for j, w in images.items():
        if j in pv:
            padd_into(out, pmul(pderiv(p, j), w))
    return out


def _quotient_rule(ctx: Context, n: Poly, d: Poly, Dn: Poly,
                   Dd: Poly) -> Expr:
    """D(n/d) in lowest terms from the canonical pair n, d and their
    images Dn, Dd under a derivation D with polynomial values.

    Over g = gcd(d, Dd), D(n/d) is t/(d*(d/g)) with
    t = Dn*(d/g) - n*(Dd/g), and only h = gcd(t, d) can cancel: take an
    irreducible p with p^k dividing d exactly.  D(d) is divisible by
    p^(k-1).  If p^k divides Dd, then p does not divide d/g, and p has
    multiplicity k in d*(d/g) as in d.  Otherwise p divides d/g but not
    n or Dd/g, so it does not divide t.  The denominators' leading
    coefficients stay positive, as g and h are primitive ones, so only
    the integer content is left to cancel."""
    if not Dd:   # g = d up to its content
        t, dg = Dn, _POLY_ONE
    else:
        g = pgcd(d, Dd)
        dg, Ddg = (d, Dd) if pis_const(g) else \
            (pdiv_exact(d, g), pdiv_exact(Dd, g))
        t = psub(pmul(Dn, dg), pmul(n, Ddg))
    if t and not pis_const(d):
        h = pgcd(t, d)
        if not pis_const(h):
            t, d = pdiv_exact(t, h), pdiv_exact(d, h)
    return _lowest(ctx, t, pmul(d, dg))


def substitute_all(exprs, bindings: dict) -> list:
    """Simultaneous substitution into each expression of exprs.

    Keys are variable names or atom display strings like "h(S)"; values
    are Exprs or numbers.  All replacements happen in one pass, so a swap
    such as {"u": v, "v": u} is well defined.  The binding set is prepared
    once for the whole list (see _Substitution), so a caller with one
    binding set and many expressions passes them together.
    """
    exprs = list(exprs)
    if not exprs:
        return exprs
    ctx = exprs[0].ctx
    bound = {}
    for name, repl in bindings.items():
        if name not in ctx.index:
            raise UnknownVariable(name)
        if not isinstance(repl, Expr):
            repl = Expr.const(ctx, repl)
        elif repl.ctx is not ctx:
            raise VariableMismatch(name)
        bound[ctx.index[name]] = repl
    if any(e.ctx is not ctx for e in exprs):
        raise VariableMismatch("expressions from different contexts")
    if not bound:
        return exprs
    return _substitute(ctx, bound, exprs)


def _substitute(ctx: Context, bound: dict, exprs: list) -> list:
    """exprs with the values bound[idx] in place of the variables idx; a
    formal application whose arguments change is a new application."""
    occurring = [(pvars(e.num), pvars(e.den)) for e in exprs]
    values = {}
    for idx in sorted(set().union(*(n | d for n, d in occurring))):
        value = bound.get(idx)
        if value is None:
            info = ctx.atoms.get(idx)
            if info is None:
                continue
            args = _substitute(ctx, bound, list(info.args))
            if all(na == a for na, a in zip(args, info.args)):
                continue
            value = Expr.function(ctx, info.fname, *args, orders=info.orders)
        if value.den != _POLY_ONE or value.num != pvar(idx):
            values[idx] = value
    if not values:
        return exprs
    sub = _Substitution(ctx, values)
    return [sub.apply(e, *vs) for e, vs in zip(exprs, occurring)]


class _Substitution:
    """Values for some variables, prepared for substitution into many
    expressions.

    The value n_i/d_i of variable i is read as n_i over c_i times a product
    of powers of pairwise coprime primitive polynomials b_j: c_i is the
    integer content of d_i, and the b_j are a gcd-free basis of the
    primitive parts, with the exponents from the refinement
    (pcoprime_basis).  A polynomial then takes the common denominator
    C * prod_j b_j^K_j, and each of its terms is brought over it with
    pmul, ppow and padd alone: no Expr products and no gcds.  Powers of
    the value numerators and of the basis are cached across the batch.
    """

    def __init__(self, ctx: Context, values: dict):
        self.ctx = ctx
        self.idxs = set(values)
        self.nums = {i: v.num for i, v in values.items()}
        self.contents = {}
        dens, owners = [], []
        for i, v in values.items():
            # the leading denominator coefficient is positive, and so is
            # the content
            c = pcontent(v.den)
            self.contents[i] = c
            if not pis_const(v.den):
                dens.append(pprimitive(v.den))
                owners.append(i)
        self.basis, exps = pcoprime_basis(dens)
        self.exps = dict(zip(owners, exps))
        self._powers: dict = {}    # (i, e) -> nums[i]^e; (-1-j, e) -> b_j^e
        self._terms: dict = {}     # monomial -> (numerator, content, exps)

    def _power(self, key, base, e):
        r = self._powers.get(key)
        if r is None:
            r = self._powers[key] = ppow(base, e)
        return r

    def _term(self, extra):
        """The value of the monomial extra in the bound variables, as
        (numerator, integer content, {j: exponent of b_j})."""
        t = self._terms.get(extra)
        if t is None:
            num, content, exps = _POLY_ONE, 1, {}
            for i, e in mono_items(extra):
                num = pmul(num, self._power((i, e), self.nums[i], e))
                content *= self.contents[i] ** e
                for j, k in self.exps.get(i, {}).items():
                    exps[j] = exps.get(j, 0) + k * e
            t = self._terms[extra] = (num, content, exps)
        return t

    def _basis_power(self, j, e):
        return self._power((-1 - j, e), self.basis[j], e)

    def over_basis(self, p: Poly):
        """(N, C, K): p with the values substituted is
        N / (C * prod_j b_j^K[j])."""
        groups = [(coeff, self._term(extra))
                  for extra, coeff in pcoefficients(p, self.idxs).items()]
        C, K = 1, {}
        for _, (_, content, exps) in groups:
            C = lcm(C, content)
            for j, k in exps.items():
                if k > K.get(j, 0):
                    K[j] = k
        out = {}
        for coeff, (num, content, exps) in groups:
            t = pmul(pscale(coeff, C // content), num)
            for j, k in K.items():
                if k > exps.get(j, 0):
                    t = pmul(t, self._basis_power(j, k - exps.get(j, 0)))
            padd_into(out, t)
        return out, C, K

    def apply(self, e: Expr, num_vars: set, den_vars: set) -> Expr:
        """e with the values substituted; num_vars and den_vars are the
        variables of its numerator and denominator."""
        if not (num_vars | den_vars) & self.idxs:
            return e
        num, C, K = self.over_basis(e.num)
        if not den_vars & self.idxs:
            return self._cancel(num, C, K, e.den)
        dnum, dC, dK = self.over_basis(e.den)
        if not dnum:
            raise DivisionByZeroExpr("division by zero")
        # (num / (C b^K)) / (dnum / (dC b^dK)): one normalisation
        num, den = pscale(num, dC), pscale(dnum, C)
        for j in K.keys() | dK.keys():
            d = dK.get(j, 0) - K.get(j, 0)
            if d > 0:
                num = pmul(num, self._basis_power(j, d))
            elif d < 0:
                den = pmul(den, self._basis_power(j, -d))
        return Expr(self.ctx, num, den)

    def _cancel(self, num: Poly, C: int, K: dict, q: Poly) -> Expr:
        """num / (C * prod_j b_j^K[j] * q) in canonical form, cancelled one
        known factor at a time: exact division by each b_j, then a gcd
        against what is left of it and against q."""
        if not num:
            return Expr(self.ctx, {}, _POLY_ONE, _normalized=True)
        factors = []
        for j, k in K.items():
            b = self.basis[j]
            while k:
                try:
                    num = pdiv_exact(num, b)
                except ValueError:
                    break
                k -= 1
            while k:
                g = pgcd(num, b)
                if pis_const(g):
                    break
                num = pdiv_exact(num, g)
                factors.append(pdiv_exact(b, g))
                k -= 1
            if k:
                factors.append(self._basis_power(j, k))
        if not pis_const(q):
            g = pgcd(num, q)
            if not pis_const(g):
                num, q = pdiv_exact(num, g), pdiv_exact(q, g)
        # the factors are primitive, so the denominator's content is
        # C times that of q (Gauss's lemma); each factor's leading
        # coefficient is positive, and so is the product's
        c = gcd(C * gcd(*q.values()), *num.values())
        den = q
        for f in factors:
            den = pmul(den, f)
        den = pscale(den, C)
        if c != 1:
            num = {m: x // c for m, x in num.items()}
            den = {m: x // c for m, x in den.items()}
        return Expr(self.ctx, num, den, _normalized=True)
