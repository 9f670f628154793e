"""Two-dimensional stationary gas dynamics: residuals, manifold reduction,
and conserved differential forms.

The governing system over fields (rho, u, v, p, S) of (x, y):

    F1 = (rho*u)_x + (rho*v)_y
    F2 = rho*(u*u_x + v*u_y) + p_x
    F3 = rho*(u*v_x + v*v_y) + p_y
    F4 = u*S_x + v*S_y

No state pressure law p = G(rho, S) enters F1..F4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symkernel import Context, Expr, parse, substitute_all
from .symkernel.errors import InvalidParams, SymkernelError

FIELDS = ("rho", "u", "v", "p", "S")
# the residuals F1..F4 of the governing system, by name
RESIDUAL_NAMES = ("mass", "momentum-x", "momentum-y", "entropy")
COORDS = ("x", "y")
JETS = tuple("%s_%s" % (f, c) for f in FIELDS for c in COORDS)

_PARAMETERS = (
    "q11", "q21", "q12", "q22", "q13", "q23",
    "b1", "b2", "b3", "b4",
    "k", "k1", "k2", "eps", "lam", "a",
    "a11", "a33", "a34", "a35", "a43", "a44", "a45", "a53", "a54", "a55",
    "alpha", "beta", "mu", "g",
)


def standard_context() -> Context:
    """Fresh context with the coordinate/field/jet/parameter vocabulary."""
    ctx = Context()
    for c in COORDS:
        ctx.declare(c, "coordinate")
    for f in FIELDS:
        ctx.declare(f, "field")
    for f in FIELDS:
        for c in COORDS:
            ctx.declare("%s_%s" % (f, c), "jet")
    for p in _PARAMETERS:
        ctx.declare(p, "parameter")
    return ctx


def parse_record(ctx: Context, d, what: str, keys, default=None,
                 extra=()) -> dict:
    """{key: Expr} for the expression strings of a JSON record; the key
    "form" holds a 2x2 list and reads as a tuple of rows.  An absent key
    reads as `default`, or is an error when that is None.  A key outside
    `keys` and the non-expression keys `extra` is an error.  Each error is
    a SymkernelError that names the key."""
    if not isinstance(d, dict):
        raise SymkernelError("a %s is a JSON object" % what)
    for key in d:
        if key not in keys and key not in extra:
            raise SymkernelError("%s key %r: unknown" % (what, key))

    def expr(key, text):
        if not isinstance(text, str):
            raise SymkernelError("%s key %r: missing or not an expression "
                                 "string" % (what, key))
        try:
            return parse(ctx, text)
        except SymkernelError as exc:
            raise SymkernelError("%s key %r: %s" % (what, key, exc)) from None

    form = d.get("form", None if default is None else [[default] * 2] * 2)
    if "form" in keys and not (isinstance(form, list) and len(form) == 2
                               and all(isinstance(row, list) and len(row) == 2
                                       for row in form)):
        raise SymkernelError("%s key 'form': missing or not a 2x2 list"
                             % what)
    return {key: tuple(tuple(expr(key, t) for t in row) for row in form)
            if key == "form" else expr(key, d.get(key, default))
            for key in keys}


def system_residuals(ctx: Context):
    """The four residuals F1..F4 as expressions over fields and jets."""
    v = lambda n: Expr.var(ctx, n)
    F1 = v("rho_x") * v("u") + v("rho") * v("u_x") \
        + v("rho_y") * v("v") + v("rho") * v("v_y")
    F2 = v("rho") * (v("u") * v("u_x") + v("v") * v("u_y")) + v("p_x")
    F3 = v("rho") * (v("u") * v("v_x") + v("v") * v("v_y")) + v("p_y")
    F4 = v("u") * v("S_x") + v("v") * v("S_y")
    return F1, F2, F3, F4


def main_derivatives(ctx: Context, solve_for: str = "x") -> dict:
    """Jet substitutions solving F1..F4 at a generic point.

    solve_for="x" eliminates {p_x, p_y, S_x, rho_x} (requires u != 0);
    solve_for="y" eliminates {p_x, p_y, S_y, rho_y} (requires v != 0).
    Both choices must yield identical verification verdicts.
    """
    v = lambda n: Expr.var(ctx, n)
    rho, u, vv = v("rho"), v("u"), v("v")
    p_x = -rho * (u * v("u_x") + vv * v("u_y"))
    p_y = -rho * (u * v("v_x") + vv * v("v_y"))
    if solve_for == "x":
        return {
            "p_x": p_x,
            "p_y": p_y,
            "S_x": -(vv / u) * v("S_y"),
            "rho_x": -(rho * v("u_x") + v("rho_y") * vv + rho * v("v_y")) / u,
        }
    if solve_for == "y":
        return {
            "p_x": p_x,
            "p_y": p_y,
            "S_y": -(u / vv) * v("S_x"),
            "rho_y": -(rho * v("v_y") + v("rho_x") * u + rho * v("u_x")) / vv,
        }
    raise ValueError("solve_for must be 'x' or 'y'")


def reduce_on_manifold(exprs, solve_for: str = "x") -> list:
    """exprs with the main derivatives substituted, in one substitution."""
    exprs = list(exprs)
    if not exprs:
        return exprs
    return substitute_all(exprs, main_derivatives(exprs[0].ctx, solve_for))


def total_derivative(e: Expr, coord: str) -> Expr:
    """D_x or D_y on an expression free of jet variables."""
    free = e.free_variables()
    jets = [n for n in JETS if n in free]
    if jets:
        raise SymkernelError(
            "total derivative of a jet-dependent expression: %s" % jets)
    coeffs = {f: Expr.var(e.ctx, "%s_%s" % (f, coord)) for f in FIELDS}
    coeffs[coord] = 1
    return e.derive(coeffs)


@dataclass(frozen=True)
class OneForm:
    """A 1-form c_x dx + c_y dy with field-dependent coefficients."""
    cx: Expr
    cy: Expr

    def exterior_derivative(self) -> Expr:
        """D_x c_y - D_y c_x, the dx^dy coefficient of the form's exterior
        derivative; the form is closed when it reduces to zero on the
        solution manifold."""
        return total_derivative(self.cy, "x") - total_derivative(self.cx, "y")


def closedness_residuals(f, solve_for: str = "x"):
    """[(tag, residual)] of the 1-forms dx' and dy' whose coefficients are
    the rows of the 2x2 form matrix f, tagged closedness-dx and -dy."""
    return list(zip(("closedness-dx", "closedness-dy"), reduce_on_manifold(
        [OneForm(*row).exterior_derivative() for row in f], solve_for)))


@dataclass(frozen=True)
class ConservationFormParams:
    q11: Expr
    q21: Expr
    q12: Expr
    q22: Expr
    q13: Expr
    q23: Expr

    @staticmethod
    def make(ctx: Context, q11=1, q21=1, q12=0, q22=0, q13=0, q23=0):
        p = ConservationFormParams(*(Expr.coerce(ctx, q) for q in
                                     (q11, q21, q12, q22, q13, q23)))
        if p.q11.is_zero() or p.q21.is_zero():
            raise InvalidParams("q11*q21 must be nonzero")
        return p

    @staticmethod
    def symbolic(ctx: Context):
        return ConservationFormParams.make(
            ctx, *(parse(ctx, n) for n in ("q11", "q21", "q12", "q22",
                                           "q13", "q23")))


def flux_matrix(params: ConservationFormParams) -> tuple:
    """((A1, B1), (A2, B2)) of the conserved momentum-flux forms
    S1 = A1 dx + B1 dy and S2 = A2 dx + B2 dy (up to q11, q21).

    bateman's form matrix is this matrix at q12 = q22 = b2 and
    q13 = q23 = 0, over b1; the one-parameter families and the theorem
    map take theirs from it by composing bateman with mu_plus and a
    dilation."""
    rho, u, vv, p = (Expr.var(params.q11.ctx, n) for n in FIELDS[:4])
    return ((p + params.q12 + rho * vv ** 2, -(rho * u * vv + params.q13)),
            (-(rho * u * vv + params.q23), p + params.q22 + rho * u ** 2))


def conservation_law_forms(ctx: Context):
    """The four on-manifold closed forms of the system itself:
    mass, the two momentum laws (S1 and -S2 at q = 0), and entropy flux."""
    rho, u, vv, _, S = (Expr.var(ctx, n) for n in FIELDS)
    (A1, B1), (A2, B2) = flux_matrix(ConservationFormParams.make(ctx))
    return (
        OneForm(rho * vv, -rho * u),
        OneForm(A1, B1),
        OneForm(-A2, -B2),
        OneForm(rho * vv * S, -rho * u * S),
    )
