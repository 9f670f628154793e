"""Transformation records: reciprocal maps, point maps, one-parameter
families, and their composition/inversion algebra.

A reciprocal map sends fields through (R, U, V, P, H) and differentials
through a 2x2 coefficient matrix f:

    dx' = f11 dx + f12 dy,   dy' = f21 dx + f22 dy,

all coefficients functions of (rho, u, v, p, S).  Primed quantities are
expressed in the same variable names; an attached inverse gives the
original fields as functions of the symbols read as primed values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from ..gasdyn import FIELDS, parse_record
from ..liealg import Generator
from ..symkernel import Context, Expr
from ..symkernel.errors import NumericDomain, SymkernelError
from ..symkernel.linalg import adj2, det2, mul2


class NotInvertible(SymkernelError):
    pass


class UnknownCatalogEntry(SymkernelError):
    pass


@dataclass(frozen=True)
class ReciprocalMap:
    R: Expr
    U: Expr
    V: Expr
    P: Expr
    H: Expr
    f: tuple                      # ((f11, f12), (f21, f22))
    name: str = ""
    params: dict = field(default_factory=dict)
    inverse_fields: dict | None = None

    @property
    def ctx(self) -> Context:
        return self.R.ctx

    def field_map(self) -> dict:
        return {"rho": self.R, "u": self.U, "v": self.V,
                "p": self.P, "S": self.H}

    def components(self):
        return (self.R, self.U, self.V, self.P, self.H,
                self.f[0][0], self.f[0][1], self.f[1][0], self.f[1][1])

    def denominators(self) -> list:
        """The distinct denominators of the components, as polynomial
        Exprs in component order."""
        return list(dict.fromkeys(c.as_numer_denom()[1]
                                  for c in self.components()
                                  if not c.is_polynomial()))

    def det_f(self) -> Expr:
        return det2(self.f)

    def substitute(self, sub: dict) -> "ReciprocalMap":
        """The map with `sub` substituted into its nine components and its
        inverse values."""
        s = lambda e: e.substitute(sub)
        inv = self.inverse_fields
        return replace(
            self, R=s(self.R), U=s(self.U), V=s(self.V), P=s(self.P),
            H=s(self.H), f=tuple(tuple(map(s, row)) for row in self.f),
            inverse_fields=None if inv is None else
            {k: s(e) for k, e in inv.items()})

    def is_identity(self) -> bool:
        ctx = self.ctx
        idf = all(self.field_map()[n] == Expr.var(ctx, n) for n in FIELDS)
        return idf and self.det_f() == 1 and self.f[0][0] == 1 \
            and self.f[0][1].is_zero() and self.f[1][0].is_zero()

    def __str__(self):
        return "%s: rho'=%s, u'=%s, v'=%s, p'=%s, S'=%s" % (
            self.name or "map", self.R, self.U, self.V, self.P, self.H)


def reciprocal_map(ctx: Context, R, U, V, P, H, f, name="", params=None,
                   inverse_fields=None) -> ReciprocalMap:
    conv = lambda x: x if isinstance(x, Expr) else Expr.const(ctx, x)
    fm = ((conv(f[0][0]), conv(f[0][1])), (conv(f[1][0]), conv(f[1][1])))
    inv = None
    if inverse_fields is not None:
        inv = {k: conv(v) for k, v in inverse_fields.items()}
    return ReciprocalMap(conv(R), conv(U), conv(V), conv(P), conv(H), fm,
                         name=name, params=dict(params or {}),
                         inverse_fields=inv)


def identity_map(ctx: Context) -> ReciprocalMap:
    v = lambda n: Expr.var(ctx, n)
    return reciprocal_map(
        ctx, v("rho"), v("u"), v("v"), v("p"), v("S"),
        ((1, 0), (0, 1)), name="identity",
        inverse_fields={n: v(n) for n in FIELDS})


def map_from_dict(ctx: Context, d: dict, name="") -> ReciprocalMap:
    """The map of a JSON record with keys R, U, V, P, H and form, and
    optional inverse (keyed by all five field names), params and name; a
    missing, mis-shaped or unknown key raises a SymkernelError that names
    it."""
    rec = parse_record(ctx, d, "map", ("R", "U", "V", "P", "H", "form"),
                       extra=("inverse", "params", "name"))
    inv, params = d.get("inverse"), d.get("params", {})
    if not (inv is None or isinstance(inv, dict)):
        raise SymkernelError("map key 'inverse': not an object")
    if not isinstance(params, dict):
        raise SymkernelError("map key 'params': not an object")
    if inv is not None:
        inv = parse_record(ctx, inv, "map inverse",
                           [n for n in FIELDS if n in inv])
        missing = [n for n in FIELDS if n not in inv]
        if missing:
            raise SymkernelError(
                "map key 'inverse': missing %s (an inverse names all of "
                "%s)" % (", ".join(map(repr, missing)), ", ".join(FIELDS)))
    return reciprocal_map(
        ctx, *(rec[k] for k in ("R", "U", "V", "P", "H")), rec["form"],
        name=name or d.get("name", ""), params=params, inverse_fields=inv)


def load_map(ctx: Context, path) -> ReciprocalMap:
    with open(path, encoding="utf-8") as fh:
        return map_from_dict(ctx, json.load(fh))


@dataclass(frozen=True)
class PointMap:
    """Finite point transformation; coordinates may change, differentials
    follow the coordinate Jacobian."""
    Xc: Expr
    Yc: Expr
    R: Expr
    U: Expr
    V: Expr
    P: Expr
    H: Expr
    name: str = ""

    @property
    def ctx(self):
        return self.Xc.ctx

    def field_map(self) -> dict:
        return {"rho": self.R, "u": self.U, "v": self.V,
                "p": self.P, "S": self.H}

    def jacobian(self):
        return ((self.Xc.diff("x"), self.Xc.diff("y")),
                (self.Yc.diff("x"), self.Yc.diff("y")))


def point_map(ctx: Context, Xc=None, Yc=None, R=None, U=None, V=None,
              P=None, H=None, name="") -> PointMap:
    v = lambda n: Expr.var(ctx, n)
    conv = lambda x, d: d if x is None else (
        x if isinstance(x, Expr) else Expr.const(ctx, x))
    return PointMap(conv(Xc, v("x")), conv(Yc, v("y")), conv(R, v("rho")),
                    conv(U, v("u")), conv(V, v("v")), conv(P, v("p")),
                    conv(H, v("S")), name=name)


# --- composition and inversion ----------------------------------------------


def compose(T1: ReciprocalMap, T2: ReciprocalMap) -> ReciprocalMap:
    """T1 after T2 (apply T2 first)."""
    T = replace(T1, inverse_fields=None).substitute(T2.field_map())
    inv1, inv2 = T1.inverse_fields, T2.inverse_fields
    inv = None if inv1 is None or inv2 is None else \
        {k: v.substitute(inv1) for k, v in inv2.items()}
    return replace(T, f=mul2(T.f, T2.f), name="%s.%s" % (T1.name, T2.name),
                   params={}, inverse_fields=inv)


def _solve_linear_fractional(e: Expr, var: str, value: Expr,
                             pre_sub: dict) -> Expr:
    """Solve e(var, ...) == value for var, where e is at most degree 1 in
    var in both numerator and denominator; remaining fields in the
    coefficients are replaced through pre_sub."""
    ctx = e.ctx
    num_c, den_c = (part.collect([var]) for part in e.as_numer_denom())
    for cm in list(num_c) + list(den_c):
        if cm and cm[0][1] > 1:
            raise NotInvertible("component is not linear-fractional in %s"
                                % var)
    key1 = ((var, 1),)
    n1 = num_c.get(key1, Expr.const(ctx, 0)).substitute(pre_sub)
    n0 = num_c.get((), Expr.const(ctx, 0)).substitute(pre_sub)
    d1 = den_c.get(key1, Expr.const(ctx, 0)).substitute(pre_sub)
    d0 = den_c.get((), Expr.const(ctx, 0)).substitute(pre_sub)
    denom = n1 - value * d1
    if denom.is_zero():
        raise NotInvertible("degenerate relation for %s" % var)
    return (value * d0 - n0) / denom


def invert(T: ReciprocalMap) -> ReciprocalMap:
    """Inverse map; uses the attached inverse when present, otherwise
    attempts a triangular linear-fractional solve (p first, then u, v,
    then rho), requiring the entropy map to be the identity."""
    ctx = T.ctx
    v = lambda n: Expr.var(ctx, n)
    if T.inverse_fields is not None:
        inv_fields = T.inverse_fields
    else:
        if not (T.H == v("S")):
            raise NotInvertible("entropy map is not the identity")
        inv_fields = {"S": v("S")}
        order = [("p", T.P, ("S",)), ("u", T.U, ("p", "S")),
                 ("v", T.V, ("p", "u", "S")),
                 ("rho", T.R, ("p", "u", "v", "S"))]
        for name, comp, allowed in order:
            extraneous = [o for o in FIELDS
                          if o != name and o not in allowed
                          and comp.depends_on(o)]
            if extraneous:
                raise NotInvertible(
                    "component %s couples fields %s" % (name, extraneous))
            inv_fields[name] = _solve_linear_fractional(
                comp, name, v(name), inv_fields)
    det = T.det_f()
    if det.is_zero():
        raise NotInvertible("form matrix is singular")
    finv = tuple(tuple((e / det).substitute(inv_fields) for e in row)
                 for row in adj2(T.f))
    return ReciprocalMap(inv_fields["rho"], inv_fields["u"],
                         inv_fields["v"], inv_fields["p"], inv_fields["S"],
                         finv, name=T.name + "^-1",
                         inverse_fields=T.field_map())


# --- one-parameter families ---------------------------------------------------


# The leaf laws of the one-parameter families, by leaf: the leaf value at
# x = c*eps in the arithmetic of lib (math for floats, mpmath for mpf
# values), and the leaf of the group inverse T_-eps as a function of the
# leaf t of T_eps.
LEAVES = {
    "linear": (lambda x, lib: x, lambda t: -t),
    "tan": (lambda x, lib: lib.tan(x), lambda t: -t),
    "exp": (lambda x, lib: lib.exp(x), lambda t: 1 / t),
}


@dataclass(frozen=True)
class OneParamFamily:
    """A map family T_eps written over one transcendental leaf.

    map_sym holds the transformation with `symbol` free, and the leaf
    `symbol` takes the value LEAVES[leaf] at rate*eps, for the exact Expr
    rate c.  generator is the claimed infinitesimal generator, the
    eps-derivative of the family at eps = 0.
    """
    name: str
    map_sym: ReciprocalMap
    symbol: str
    leaf: str
    rate: Expr
    generator: Generator

    @property
    def ctx(self):
        return self.map_sym.ctx

    @cached_property
    def _rate_float(self) -> float:
        try:
            return float(self.rate.as_rational())
        except ValueError:
            raise NumericDomain(
                "family %s has symbolic parameters" % self.name) from None

    def link(self, eps, lib=math):
        """Leaf value at the group parameter in the arithmetic of `lib`
        (math for floats, mpmath for mpf values); NumericDomain when the
        rate is symbolic."""
        return LEAVES[self.leaf][0](self._rate_float * eps, lib)

    def map_at(self, value) -> ReciprocalMap:
        """Substitute an exact (rational or Expr) leaf value."""
        ctx = self.ctx
        val = value if isinstance(value, Expr) else Expr.const(ctx, value)
        return replace(self.map_sym.substitute({self.symbol: val}),
                       name="%s@%s" % (self.name, val),
                       params={self.symbol: val})

    def numeric_assignment(self, eps: float, state: dict) -> dict:
        a = dict(state)
        a[self.symbol] = self.link(eps)
        return a
