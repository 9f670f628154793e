"""Catalog of the explicit transformation families.

Every entry is constructed from closed-form components.  bateman is the
one builder that writes a pressure inversion: the four one-parameter
families and theorem_map are bateman maps composed with the equivalence
map mu_plus and a dilation of the form matrix (its product with a
scalar), so each family member is an exact transformation for every
parameter value, not a first-order truncation.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import get_type_hints

from ..gasdyn import ConservationFormParams, InvalidParams, flux_matrix
from ..liealg import standard_basis
from ..prolong import case_generators
from ..symkernel import Context, Expr
from .maps import (OneParamFamily, ReciprocalMap, UnknownCatalogEntry,
                   compose, identity_map, reciprocal_map)


def _exprs(ctx, **values) -> list:
    """The values as Exprs of ctx, in order; None gives the symbol of its
    keyword."""
    return [Expr.var(ctx, n) if x is None else Expr.coerce(ctx, x)
            for n, x in values.items()]


def _entropy(ctx, entropy: str) -> Expr:
    if entropy == "identity":
        return Expr.var(ctx, "S")
    if entropy == "formal":
        return Expr.function(ctx, "F", Expr.var(ctx, "S"))
    raise InvalidParams("entropy must be 'identity' or 'formal'")


def _psi(ctx, psi):
    if psi == "formal":
        return Expr.function(ctx, "psi", Expr.var(ctx, "S"))
    return Expr.coerce(ctx, psi)


def _dilated(T: ReciprocalMap, c, name: str) -> ReciprocalMap:
    """T with its form matrix multiplied by c, named `name`."""
    return replace(T, f=tuple(tuple(c * e for e in row) for row in T.f),
                   name=name)


def bateman(ctx: Context, b1=None, b2=None, b3=None, b4=None,
            entropy="formal") -> ReciprocalMap:
    """The four-parameter pressure-inversion family (b1*b3 != 0)."""
    v = lambda n: Expr.var(ctx, n)
    b1, b2, b3, b4 = _exprs(ctx, b1=b1, b2=b2, b3=b3, b4=b4)
    if b1.is_zero() or b3.is_zero():
        raise InvalidParams("bateman requires b1*b3 != 0")
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    w = p + b2
    q2 = u ** 2 + vv ** 2
    c = b1 ** 2 * b3
    U = b1 * u / w
    V = b1 * vv / w
    P = b4 - c / w
    R = b3 * rho * w / (w + rho * q2)
    H = _entropy(ctx, entropy)
    phi = flux_matrix(ConservationFormParams.make(ctx, 1, 1, b2, b2, 0, 0))
    f = tuple(tuple(e / b1 for e in row) for row in phi)
    return reciprocal_map(ctx, R, U, V, P, H, f, name="bateman")


def bateman_simplified(ctx: Context, b3=1, b4=0,
                       entropy="formal") -> ReciprocalMap:
    """Normal form with the pressure shift and field scaling removed."""
    return replace(bateman(ctx, 1, 0, b3, b4, entropy=entropy),
                   name="bateman_simplified")


def one_param_bateman(ctx: Context, entropy="identity") -> OneParamFamily:
    """Flow of -2*X3, written over the group parameter itself:
    bateman(1/eps, 1/eps, 1, 1/eps)."""
    ie = 1 / Expr.var(ctx, "eps")
    m = replace(bateman(ctx, ie, ie, 1, ie, entropy=entropy),
                name="one_param_bateman")
    gen = standard_basis(ctx)[2].scale(-2).with_label("-2*X3")
    return OneParamFamily(m, "eps", "linear", Expr.const(ctx, 1), gen)


def one_param_q13(ctx: Context, q12=0, q13=1,
                  entropy="identity") -> OneParamFamily:
    """Flow of the rotation-coupled branch; leaf lam = tan(eps*q13).  The
    dilation by 1/(1+lam^2) of mu_plus(a33=1/(1+lam^2), a54=q12+q13/lam,
    alpha=1, beta=-lam, psi=1) after bateman(-q13/lam, q12-q13/lam, 1, 0)."""
    q12e, q13e = _exprs(ctx, q12=q12, q13=q13)
    if q13e.is_zero():
        raise InvalidParams("one_param_q13 requires q13 != 0")
    lam = Expr.var(ctx, "lam")
    iopl = 1 / (1 + lam ** 2)
    ql = q13e / lam
    outer = mu_plus(ctx, a33=iopl, a54=q12e + ql, alpha=1, beta=-lam, psi=1,
                    entropy=entropy)
    inner = bateman(ctx, -ql, q12e - ql, 1, 0, entropy="identity")
    m = _dilated(compose(outer, inner), iopl, "one_param_q13")
    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, q13e, -q13e)
    gen = case_generators("b", params, ctx, k=1)
    return OneParamFamily(m, "lam", "tan", q13e, gen)


def one_param_exp(ctx: Context, k1=1, k2=1, q12=0,
                  entropy="identity") -> OneParamFamily:
    """Flow of the scaling-coupled branch (k1 != 0); leaf lam = exp(k1*eps).
    The dilation by lam^-3 of mu_plus(a33=lam^-2, a54=q12*(1-lam^2),
    alpha=lam, beta=0, psi=1) after one_param_linear's map at
    a = k2*(lam^2-1)/(2*k1), which stays defined at k2 = 0."""
    k1e, k2e, q12e = _exprs(ctx, k1=k1, k2=k2, q12=q12)
    if k1e.is_zero():
        raise InvalidParams("one_param_exp requires k1 != 0")
    lam = Expr.var(ctx, "lam")
    outer = mu_plus(ctx, a33=lam ** (-2), a54=q12e * (1 - lam ** 2),
                    alpha=lam, beta=0, psi=1, entropy=entropy)
    inner = _linear_map(ctx, q12e, "identity").substitute(
        {"a": k2e * (lam ** 2 - 1) / (2 * k1e)})
    m = _dilated(compose(outer, inner), lam ** (-3), "one_param_exp")
    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, 0, 0)
    gen = case_generators("c", params, ctx, k1=k1e, k2=k2e)
    return OneParamFamily(m, "lam", "exp", k1e, gen)


def one_param_linear(ctx: Context, k2=1, q12=0,
                     entropy="identity") -> OneParamFamily:
    """Flow of the pure pressure-inversion branch (k1 = 0); leaf a = k2*eps:
    bateman(-1/a, q12 - 1/a, 1, -q12 - 1/a)."""
    k2e, q12e = _exprs(ctx, k2=k2, q12=q12)
    m = _linear_map(ctx, q12e, entropy)
    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, 0, 0)
    gen = case_generators("c", params, ctx, k1=0, k2=k2e)
    return OneParamFamily(m, "a", "linear", k2e, gen)


def _linear_map(ctx: Context, q12: Expr, entropy: str) -> ReciprocalMap:
    """one_param_linear's map, which does not depend on k2."""
    ia = 1 / Expr.var(ctx, "a")
    return replace(bateman(ctx, -ia, q12 - ia, 1, -q12 - ia, entropy=entropy),
                   name="one_param_linear")


def theorem_map(ctx: Context, alpha=None, beta=None, k=None, a11=1,
                a34=None, a35=None, a45=None, psi="formal",
                entropy="formal") -> ReciprocalMap:
    """The general family produced by the megaideal analysis (a35 != 0):
    the dilation by -k*a11 of mu_plus(a11, alpha=beta, beta=alpha, psi)
    after bateman(1, -a34/a35, 2/a35, -a45/a35)."""
    alpha, beta, k, a11, a34, a35, a45 = _exprs(
        ctx, alpha=alpha, beta=beta, k=k, a11=a11, a34=a34, a35=a35, a45=a45)
    if a35.is_zero():
        raise InvalidParams("theorem map requires a35 != 0")
    if (alpha ** 2 + beta ** 2).is_zero():
        raise InvalidParams("alpha^2 + beta^2 != 0 required")
    outer = mu_plus(ctx, a11=a11, alpha=beta, beta=alpha, psi=psi,
                    entropy=entropy)
    inner = bateman(ctx, 1, -a34 / a35, 2 / a35, -a45 / a35,
                    entropy="identity")
    return _dilated(compose(outer, inner), -k * a11, "theorem")


def mu_plus(ctx: Context, a33=1, a54=0, a11=1, alpha=1, beta=0,
            psi="formal", entropy="formal") -> ReciprocalMap:
    """Constant-form branch; equivalent to an equivalence transformation."""
    v = lambda n: Expr.var(ctx, n)
    a33e, a54e, a11e, alpha_e, beta_e = _exprs(
        ctx, a33=a33, a54=a54, a11=a11, alpha=alpha, beta=beta)
    if a33e.is_zero():
        raise InvalidParams("a33 != 0 required")
    if not (a11e ** 2 - 1).is_zero():
        raise InvalidParams("a11^2 = 1 required")
    psi_e = _psi(ctx, psi)
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    ab2 = alpha_e ** 2 + beta_e ** 2
    P = p / a33e - a54e
    R = rho / (a33e * psi_e ** 2 * ab2)
    U = psi_e * (alpha_e * u + beta_e * vv)
    V = a11e * psi_e * (alpha_e * vv - beta_e * u)
    H = _entropy(ctx, entropy)
    f = ((a11e * alpha_e, a11e * beta_e), (-beta_e, alpha_e))
    return reciprocal_map(ctx, R, U, V, P, H, f, name="mu_plus")


def mu_minus(ctx: Context, a33=1, a54=0, a11=1, alpha=1, beta=0,
             psi="formal", entropy="formal") -> ReciprocalMap:
    """Candidate from the opposite sign branch; fails the reciprocity
    verification except on isentropic irrotational solutions."""
    v = lambda n: Expr.var(ctx, n)
    a33e, a54e, a11e, alpha_e, beta_e = _exprs(
        ctx, a33=a33, a54=a54, a11=a11, alpha=alpha, beta=beta)
    psi_e = _psi(ctx, psi)
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    ab2 = alpha_e ** 2 + beta_e ** 2
    q2 = u ** 2 + vv ** 2
    P = p / a33e - a54e + rho * q2 / a33e
    R = -1 / (a33e * rho * psi_e ** 2 * ab2)
    U = rho * psi_e * (alpha_e * u + beta_e * vv)
    V = a11e * rho * psi_e * (alpha_e * vv - beta_e * u)
    H = _entropy(ctx, entropy)
    f = ((beta_e * a11e, -alpha_e * a11e), (alpha_e, beta_e))
    return reciprocal_map(ctx, R, U, V, P, H, f, name="mu_minus")


def munk_prim(ctx: Context, psi="formal") -> ReciprocalMap:
    """Projective velocity/density rescaling by a function of entropy: the
    point transformation mu_plus at its identity parameters."""
    return replace(mu_plus(ctx, psi=psi, entropy="identity"),
                   name="munk_prim")


def involution_E1_reciprocal(ctx: Context) -> ReciprocalMap:
    v = lambda n: Expr.var(ctx, n)
    return reciprocal_map(ctx, v("rho"), -v("u"), v("v"), v("p"), v("S"),
                          ((-1, 0), (0, 1)), name="E1")


def involution_E2_reciprocal(ctx: Context) -> ReciprocalMap:
    v = lambda n: Expr.var(ctx, n)
    return reciprocal_map(ctx, v("rho"), v("u"), -v("v"), v("p"), v("S"),
                          ((1, 0), (0, -1)), name="E2")


CATALOG = {
    "identity": identity_map,
    "bateman": bateman,
    "bateman_simplified": bateman_simplified,
    "theorem": theorem_map,
    "one_param_bateman": one_param_bateman,
    "one_param_q13": one_param_q13,
    "one_param_exp": one_param_exp,
    "one_param_linear": one_param_linear,
    "mu_plus": mu_plus,
    "mu_minus": mu_minus,
    "E1": involution_E1_reciprocal,
    "E2": involution_E2_reciprocal,
    "munk_prim": munk_prim,
}


def _kind(name: str) -> type:
    """The declared return type of the entry's builder."""
    return get_type_hints(CATALOG[name])["return"]


def entries(*kinds: type) -> list[str]:
    """The names of the entries of the given kinds (all without kinds)."""
    return [n for n in CATALOG if not kinds or issubclass(_kind(n), kinds)]


def parameters(name: str, *kinds: type) -> list[str]:
    """The parameters of an entry after ctx; raises UnknownCatalogEntry
    when there is no entry `name` of one of the given kinds."""
    builder = CATALOG.get(name)
    if builder is None:
        raise UnknownCatalogEntry(
            "no catalog entry %r; known: %s"
            % (name, ", ".join(entries(*kinds))))
    if kinds and not issubclass(_kind(name), kinds):
        raise UnknownCatalogEntry("%s is of kind %s, need %s: %s" % (
            name, _kind(name).__name__,
            " or ".join(k.__name__ for k in kinds),
            ", ".join(entries(*kinds))))
    return list(inspect.signature(builder).parameters)[1:]


def catalog(ctx: Context, name: str, *kinds: type, **params):
    """Build entry `name`, which must be of one of the given kinds (any
    kind without kinds), with the given parameters."""
    known = parameters(name, *kinds)
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise InvalidParams("%s takes no parameter %s; known: %s" % (
            name, ", ".join(unknown), ", ".join(known) or "none"))
    return CATALOG[name](ctx, **params)
