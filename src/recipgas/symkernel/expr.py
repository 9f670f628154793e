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
"""

from __future__ import annotations

import numbers
from math import gcd

from .context import Context
from .errors import (DivisionByZeroExpr, NotPolynomialInVars,
                     UnboundSymbol, UnknownVariable, VariableMismatch)
from .numeric import compile_exprs
from .poly import (MONO_ONE, QQ, Poly, mono_items, mono_pack, padd,
                   pconst, pcontent, pderiv, pdiv_exact, peval, pgcd,
                   pis_const, pis_zero, pleading_mono, pmul, pneg, ppow,
                   pprimitive, psorted_terms, pvar, pvars)

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
    def var(ctx: Context, name: str) -> "Expr":
        return Expr(ctx, pvar(ctx.idx(name)), _POLY_ONE, _normalized=True)

    @staticmethod
    def function(ctx: Context, fname: str, *args, orders=None) -> "Expr":
        args = tuple(a if isinstance(a, Expr) else Expr.const(ctx, a)
                     for a in args)
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
        other = self._coerce(other)
        if self.den == other.den:   # a sum over 1 is canonical as it is
            return Expr(self.ctx, padd(self.num, other.num), self.den,
                        _normalized=self.den == _POLY_ONE)
        g = pgcd(self.den, other.den)
        if pis_const(g):
            num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
            return Expr(self.ctx, num, pmul(self.den, other.den))
        d1 = pdiv_exact(self.den, g)
        d2 = pdiv_exact(other.den, g)
        num = padd(pmul(self.num, d2), pmul(other.num, d1))
        return Expr(self.ctx, num, pmul(self.den, d2))

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
            raise DivisionByZeroExpr(str(other))
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
        return hash((frozenset(self.num.items()),
                     frozenset(self.den.items())))

    # --- calculus -------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Partial derivative; formal functions follow the chain rule."""
        idx = self.ctx.idx(name)
        nd = _poly_deriv_expr(self.ctx, self.num, idx, name)
        dd = _poly_deriv_expr(self.ctx, self.den, idx, name)
        if dd.is_zero():
            if nd.is_polynomial():
                return Expr(self.ctx, nd.num, pmul(self.den, nd.den))
            return nd / _poly(self.ctx, self.den)
        num_e, den_e = _poly(self.ctx, self.num), _poly(self.ctx, self.den)
        return (nd * den_e - num_e * dd) / (den_e * den_e)

    # --- substitution ---------------------------------------------------

    def substitute(self, bindings: dict) -> "Expr":
        """Simultaneous substitution of variables and formal applications.

        Keys are variable names or atom display strings like "h(S)"; values
        are Exprs or numbers.  All replacements happen in one pass, so a
        swap such as {"u": v, "v": u} is well defined.
        """
        ctx = self.ctx
        bound = {}
        for name, repl in bindings.items():
            if name not in ctx.index:
                raise UnknownVariable(name)
            if not isinstance(repl, Expr):
                repl = Expr.const(ctx, repl)
            elif repl.ctx is not ctx:
                raise VariableMismatch(name)
            bound[ctx.index[name]] = repl
        if not bound:
            return self
        return _subs_pair(self, bound)

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
        groups: dict = {}
        for m, c in self.num.items():
            pairs = mono_items(m)
            tgt = tuple((v, e) for v, e in pairs if v in idxs)
            rest = mono_pack([(v, e) for v, e in pairs if v not in idxs])
            groups.setdefault(tgt, {})[rest] = c
        out = {}
        for tgt in sorted(groups):
            key = tuple((ctx.names[v], e) for v, e in tgt)
            out[key] = Expr(ctx, groups[tgt], self.den)
        return out

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
        return str(c.numerator)
    return "%s/%s" % (c.numerator, c.denominator)


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
    c = gcd(*den.values())
    if c != 1:
        c = gcd(c, *num.values())
        if c != 1:
            num = {m: x // c for m, x in num.items()}
            den = {m: x // c for m, x in den.items()}
    return num, den


def _normalize(num: Poly, den: Poly):
    if pis_zero(den):
        raise DivisionByZeroExpr("denominator is identically zero")
    if pis_zero(num):
        return {}, _POLY_ONE
    num, den = _cancel(num, den)
    if _leading(den) < 0:
        return pneg(num), pneg(den)
    return num, den


def _poly_deriv_expr(ctx: Context, p: Poly, idx: int, name: str) -> Expr:
    """Total derivative of a polynomial, chaining through formal atoms."""
    out = _poly(ctx, pderiv(p, idx))
    for aidx in sorted(pvars(p)):
        info = ctx.atoms.get(aidx)
        if info is None:
            continue
        dp = pderiv(p, aidx)
        if pis_zero(dp):
            continue
        chain = Expr.const(ctx, 0)
        for pos, arg in enumerate(info.args):
            da = arg.diff(name)
            if da.is_zero():
                continue
            orders = list(info.orders)
            orders[pos] += 1
            marker = Expr.function(ctx, info.fname, *info.args,
                                   orders=tuple(orders))
            chain = chain + marker * da
        if not chain.is_zero():
            out = out + _poly(ctx, dp) * chain
    return out


def _subs_pair(e: Expr, bound: dict) -> Expr:
    ctx = e.ctx

    def value_of(idx):
        if idx in bound:
            return bound[idx]
        info = ctx.atoms.get(idx)
        if info is not None:
            new_args = tuple(_subs_pair(a, bound) for a in info.args)
            if all(na == a for na, a in zip(new_args, info.args)):
                return Expr(ctx, pvar(idx), _POLY_ONE, _normalized=True)
            return Expr.function(ctx, info.fname, *new_args,
                                 orders=info.orders)
        return Expr(ctx, pvar(idx), _POLY_ONE, _normalized=True)

    one = Expr.const(ctx, 1)
    num = peval(e.num, value_of, lambda a, b: a * b, lambda a, b: a + b, one)
    den = peval(e.den, value_of, lambda a, b: a * b, lambda a, b: a + b, one)
    if not isinstance(num, Expr):
        num = Expr.const(ctx, num)
    if not isinstance(den, Expr):
        den = Expr.const(ctx, den)
    return num / den

