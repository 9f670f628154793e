"""Transformation records: reciprocal maps, one-parameter families, and
their composition/inversion algebra.

A reciprocal map sends fields through (R, U, V, P, H) and differentials
through a 2x2 coefficient matrix f:

    dx' = f11 dx + f12 dy,   dy' = f21 dx + f22 dy,

all coefficients functions of (rho, u, v, p, S).  A point transformation
is the reciprocal map whose f is its coordinate Jacobian, e.g. x' = -x
has f = ((-1, 0), (0, 1)).  Primed quantities are expressed in the same
variable names; an inverse gives the original fields as functions of the
symbols read as primed values.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

from ..gasdyn import FIELDS, parse_record
from ..liealg import Generator
from ..symkernel import Context, Expr, substitute_all
from ..symkernel.errors import SymkernelError
from ..symkernel.linalg import adj2, det2, mul2, rref


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
        """The map with `sub` substituted into its nine components."""
        R, U, V, P, H, f11, f12, f21, f22 = substitute_all(
            self.components(), sub)
        return replace(self, R=R, U=U, V=V, P=P, H=H,
                       f=((f11, f12), (f21, f22)))

    def is_identity(self) -> bool:
        ctx = self.ctx
        idf = all(self.field_map()[n] == Expr.var(ctx, n) for n in FIELDS)
        return idf and self.det_f() == 1 and self.f[0][0] == 1 \
            and self.f[0][1].is_zero() and self.f[1][0].is_zero()

    def __str__(self):
        return "%s: rho'=%s, u'=%s, v'=%s, p'=%s, S'=%s" % (
            self.name or "map", self.R, self.U, self.V, self.P, self.H)


def reciprocal_map(ctx: Context, R, U, V, P, H, f, name="") -> ReciprocalMap:
    conv = lambda x: Expr.coerce(ctx, x)
    return ReciprocalMap(*map(conv, (R, U, V, P, H)),
                         tuple(tuple(map(conv, row)) for row in f), name=name)


def identity_map(ctx: Context) -> ReciprocalMap:
    v = lambda n: Expr.var(ctx, n)
    return reciprocal_map(ctx, v("rho"), v("u"), v("v"), v("p"), v("S"),
                          ((1, 0), (0, 1)), name="identity")


def map_from_dict(ctx: Context, d: dict, name="") -> ReciprocalMap:
    """The map of a JSON record with keys R, U, V, P, H and form, and
    optional name; a missing, mis-shaped or unknown key raises a
    SymkernelError that names it."""
    rec = parse_record(ctx, d, "map", ("R", "U", "V", "P", "H", "form"),
                       extra=("name",))
    return reciprocal_map(
        ctx, *(rec[k] for k in ("R", "U", "V", "P", "H")), rec["form"],
        name=name or d.get("name", ""))


def load_map(ctx: Context, path) -> ReciprocalMap:
    with open(path, encoding="utf-8") as fh:
        return map_from_dict(ctx, json.load(fh))


# --- composition and inversion ----------------------------------------------


def compose(T1: ReciprocalMap, T2: ReciprocalMap) -> ReciprocalMap:
    """T1 after T2 (apply T2 first)."""
    T = T1.substitute(T2.field_map())
    return replace(T, f=mul2(T.f, T2.f), name="%s.%s" % (T1.name, T2.name))


# The steps of the inverse solve: the unknowns of each, in order.  A step
# solves the components of its unknowns for them, given S and the fields
# of the earlier steps.
_STEPS = (("p",), ("u", "v"), ("rho",))


def _inner_fields(e: Expr) -> set:
    """The fields that the formal applications in e take as arguments."""
    ctx = e.ctx
    atoms = [Expr.var(ctx, n) for n in e.free_variables()
             if ctx.role(n) == "function"]
    return {o for o in FIELDS for a in atoms if not a.diff(o).is_zero()}


def solve_inverse(T: ReciprocalMap) -> dict:
    """The original fields as functions of the primed ones (read in the
    same symbol names), solved step by step over _STEPS, which requires
    the entropy map S -> S.  In a step numerator minus primed value times
    denominator of each component must be affine in the step's unknowns,
    and the system is solved exactly; anything else raises NotInvertible."""
    ctx = T.ctx
    v = lambda n: Expr.var(ctx, n)
    if T.H != v("S"):
        raise NotInvertible("entropy map is not the identity")
    zero, one = Expr.const(ctx, 0), Expr.const(ctx, 1)
    comps, inv = T.field_map(), {}
    for unknowns in _STEPS:
        rows = []
        for name in unknowns:
            comp = comps[name]
            inner = _inner_fields(comp)
            extraneous = [o for o in FIELDS
                          if o not in unknowns + ("S",) and o not in inv
                          and (comp.depends_on(o) or o in inner)]
            if extraneous:
                raise NotInvertible(
                    "component %s couples fields %s" % (name, extraneous))
            parts = [part.collect(unknowns) for part in comp.as_numer_denom()]
            if inner & set(unknowns) or any(sum(e for _, e in key) > 1
                                            for part in parts for key in part):
                raise NotInvertible(
                    "component %s is not linear-fractional in %s"
                    % (name, ", ".join(unknowns)))
            row = {}
            for part, scale in zip(parts, (one, -v(name))):
                for key, c in part.items():
                    col = unknowns.index(key[0][0]) if key else len(unknowns)
                    row[col] = row.get(col, 0) + scale * c.substitute(inv)
            rows.append(row)
        pivots = rref(rows)
        for col, name in enumerate(unknowns):
            if col not in pivots:
                raise NotInvertible("degenerate relation for %s" % name)
            inv[name] = -pivots[col].get(len(unknowns), zero)
    inv["S"] = v("S")
    return inv


def invert(T: ReciprocalMap) -> ReciprocalMap:
    """The inverse map, its fields from solve_inverse."""
    inv_fields = solve_inverse(T)
    det = T.det_f()
    if det.is_zero():
        raise NotInvertible("form matrix is singular")
    f11, f12, f21, f22 = substitute_all(
        [e / det for row in adj2(T.f) for e in row], inv_fields)
    return ReciprocalMap(inv_fields["rho"], inv_fields["u"],
                         inv_fields["v"], inv_fields["p"], inv_fields["S"],
                         ((f11, f12), (f21, f22)), name=T.name + "^-1")


# --- one-parameter families ---------------------------------------------------


Leaf = namedtuple("Leaf", "law ode add")

# The leaves of the one-parameter families: the value at x = c*eps in the
# arithmetic of lib (math or mpmath), g(t) of the ODE dt/deps = c*g(t), and
# the addition law, the leaf at eps1 + eps2 from those at eps1 and eps2.
LEAVES = {
    "linear": Leaf(lambda x, lib: x, lambda t: t ** 0, lambda s, t: s + t),
    "tan": Leaf(lambda x, lib: lib.tan(x), lambda t: 1 + t ** 2,
                lambda s, t: (s + t) / (1 - s * t)),
    "exp": Leaf(lambda x, lib: lib.exp(x), lambda t: t, lambda s, t: s * t),
}


@dataclass(frozen=True)
class OneParamFamily:
    """A map family T_eps written over one transcendental leaf.

    map_sym holds the transformation with `symbol` free and names the
    family, and the leaf
    `symbol` takes the value LEAVES[leaf].law at rate*eps, for the exact
    Expr rate c.  generator is the claimed infinitesimal generator, the
    eps-derivative of the family at eps = 0, built by make_generator on
    first read: a check of the family's maps alone builds none.
    """
    map_sym: ReciprocalMap
    symbol: str
    leaf: str
    rate: Expr
    make_generator: Callable[[], Generator] = field(compare=False,
                                                     repr=False)

    @cached_property
    def generator(self) -> Generator:
        # a frozen dataclass refuses setattr; cached_property writes the
        # instance __dict__ directly
        return self.make_generator()

    @property
    def name(self) -> str:
        return self.map_sym.name

    @property
    def ctx(self):
        return self.map_sym.ctx

    def map_at(self, value) -> ReciprocalMap:
        """Substitute an exact (rational or Expr) leaf value."""
        val = Expr.coerce(self.ctx, value)
        return replace(self.map_sym.substitute({self.symbol: val}),
                       name="%s@%s" % (self.name, val))
