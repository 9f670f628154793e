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
from dataclasses import dataclass, field

from ..gasdyn import FIELDS
from ..liealg import Generator
from ..symkernel import Context, Expr, parse
from ..symkernel.errors import SymkernelError


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
        ctx = self.ctx
        one = Expr.const(ctx, 1).den
        return list(dict.fromkeys(Expr(ctx, c.den, one)
                                  for c in self.components()
                                  if not c.is_polynomial()))

    def det_f(self) -> Expr:
        return self.f[0][0] * self.f[1][1] - self.f[0][1] * self.f[1][0]

    def is_identity(self) -> bool:
        ctx = self.ctx
        idf = all(self.field_map()[n] == Expr.var(ctx, n) for n in FIELDS)
        return idf and self.det_f() == 1 and self.f[0][0] == 1 \
            and self.f[0][1].is_zero() and self.f[1][0].is_zero()

    def to_dict(self) -> dict:
        d = {
            "R": str(self.R), "U": str(self.U), "V": str(self.V),
            "P": str(self.P), "H": str(self.H),
            "form": [[str(self.f[0][0]), str(self.f[0][1])],
                     [str(self.f[1][0]), str(self.f[1][1])]],
            "params": {k: str(v) for k, v in self.params.items()},
        }
        if self.inverse_fields is not None:
            d["inverse"] = {k: str(v) for k, v in self.inverse_fields.items()}
        return d

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
    form = d["form"]
    inv = d.get("inverse")
    return reciprocal_map(
        ctx,
        parse(ctx, d["R"]), parse(ctx, d["U"]), parse(ctx, d["V"]),
        parse(ctx, d["P"]), parse(ctx, d["H"]),
        ((parse(ctx, form[0][0]), parse(ctx, form[0][1])),
         (parse(ctx, form[1][0]), parse(ctx, form[1][1]))),
        name=name or d.get("name", ""),
        params=d.get("params", {}),
        inverse_fields=None if inv is None else
        {k: parse(ctx, v) for k, v in inv.items()})


def load_map(ctx: Context, path) -> ReciprocalMap:
    with open(path) as fh:
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
    sub = T2.field_map()
    fields = {k: v.substitute(sub) for k, v in T1.field_map().items()}
    f1 = [[T1.f[i][j].substitute(sub) for j in range(2)] for i in range(2)]
    f2 = T2.f
    fc = tuple(
        tuple(f1[i][0] * f2[0][j] + f1[i][1] * f2[1][j] for j in range(2))
        for i in range(2))
    inv = None
    if T1.inverse_fields is not None and T2.inverse_fields is not None:
        inv1 = T1.inverse_fields
        inv = {k: v.substitute(inv1) for k, v in T2.inverse_fields.items()}
    return ReciprocalMap(fields["rho"], fields["u"], fields["v"],
                         fields["p"], fields["S"], fc,
                         name="%s.%s" % (T1.name, T2.name),
                         inverse_fields=inv)


def _solve_linear_fractional(e: Expr, var: str, value: Expr,
                             pre_sub: dict) -> Expr:
    """Solve e(var, ...) == value for var, where e is at most degree 1 in
    var in both numerator and denominator; remaining fields in the
    coefficients are replaced through pre_sub."""
    ctx = e.ctx
    num_c = Expr(ctx, e.num, Expr.const(ctx, 1).den).collect([var])
    den_c = Expr(ctx, e.den, Expr.const(ctx, 1).den).collect([var])
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
    adj = ((T.f[1][1], -T.f[0][1]), (-T.f[1][0], T.f[0][0]))
    finv = tuple(
        tuple((adj[i][j] / det).substitute(inv_fields) for j in range(2))
        for i in range(2))
    fields = {k: e.substitute(inv_fields) for k, e in
              [("rho", v("rho")), ("u", v("u")), ("v", v("v")),
               ("p", v("p")), ("S", v("S"))]}
    return ReciprocalMap(inv_fields["rho"], inv_fields["u"],
                         inv_fields["v"], inv_fields["p"], inv_fields["S"],
                         finv, name=T.name + "^-1",
                         inverse_fields=T.field_map())


# --- one-parameter families ---------------------------------------------------


@dataclass(frozen=True)
class OneParamFamily:
    """A map family T_eps written over one transcendental leaf.

    map_sym holds the transformation with `symbol` free; link_spec names
    the leaf's dependence on the group parameter, one of ("linear", c) for
    c*eps, ("tan", c) for tan(c*eps) or ("exp", c) for exp(c*eps), and is
    None when c is symbolic.  generator is the claimed infinitesimal
    generator, the eps-derivative of the family at eps = 0.
    """
    name: str
    map_sym: ReciprocalMap
    symbol: str
    link_spec: tuple | None
    generator: Generator
    inverse_symbol_map: object     # symbol value of T_{-eps} given symbol value

    @property
    def ctx(self):
        return self.map_sym.ctx

    def link(self, eps, lib=math):
        """Leaf value at the group parameter in the arithmetic of `lib`
        (math for floats, mpmath for mpf values)."""
        if self.link_spec is None:
            raise SymkernelError(
                "family %s has symbolic parameters" % self.name)
        kind, c = self.link_spec
        x = c * eps
        return x if kind == "linear" else getattr(lib, kind)(x)

    def map_at(self, value) -> ReciprocalMap:
        """Substitute an exact (rational or Expr) leaf value."""
        ctx = self.ctx
        val = value if isinstance(value, Expr) else Expr.const(ctx, value)
        sub = {self.symbol: val}
        f = tuple(tuple(self.map_sym.f[i][j].substitute(sub)
                        for j in range(2)) for i in range(2))
        inv = None
        if self.map_sym.inverse_fields is not None:
            inv = {k: e.substitute(sub)
                   for k, e in self.map_sym.inverse_fields.items()}
        return ReciprocalMap(
            self.map_sym.R.substitute(sub), self.map_sym.U.substitute(sub),
            self.map_sym.V.substitute(sub), self.map_sym.P.substitute(sub),
            self.map_sym.H.substitute(sub), f,
            name="%s@%s" % (self.name, val), params={self.symbol: val},
            inverse_fields=inv)

    def numeric_assignment(self, eps: float, state: dict) -> dict:
        a = dict(state)
        a[self.symbol] = self.link(eps)
        return a
