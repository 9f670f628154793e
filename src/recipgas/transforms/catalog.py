"""Catalog of the explicit transformation families.

Every entry is constructed from closed-form components; one-parameter
families carry exact form matrices obtained by integrating the linear flow
of the differentials (using invariance of the conserved flux forms), so
each family member is an exact transformation for every parameter value,
not a first-order truncation.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import get_type_hints

from ..gasdyn import ConservationFormParams, InvalidParams, flux_matrix
from ..liealg import standard_basis
from ..prolong import case_generators
from ..symkernel import Context, Expr
from ..symkernel.linalg import mul2
from .maps import (OneParamFamily, ReciprocalMap, UnknownCatalogEntry,
                   identity_map, reciprocal_map)


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


def _phi(ctx, q):
    """The flux matrix at q12 = q22 = q and q13 = q23 = 0."""
    return flux_matrix(ConservationFormParams.make(ctx, 1, 1, q, q, 0, 0))


def _affine(c, s, m):
    """c*I + s*m for a 2x2 matrix m."""
    return tuple(tuple((c if i == j else 0) + s * e
                       for j, e in enumerate(row)) for i, row in enumerate(m))


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
    f = _affine(0, 1 / b1, _phi(ctx, b2))
    return reciprocal_map(ctx, R, U, V, P, H, f, name="bateman")


def bateman_simplified(ctx: Context, b3=1, b4=0,
                       entropy="formal") -> ReciprocalMap:
    """Normal form with the pressure shift and field scaling removed."""
    return replace(bateman(ctx, 1, 0, b3, b4, entropy=entropy),
                   name="bateman_simplified")


def one_param_bateman(ctx: Context, entropy="identity") -> OneParamFamily:
    """Flow of -2*X3, written over the group parameter itself."""
    v = lambda n: Expr.var(ctx, n)
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    eps = v("eps")
    q2 = u ** 2 + vv ** 2
    d1 = 1 + eps * p
    d2 = 1 + eps * (p + rho * q2)
    U = u / d1
    V = vv / d1
    P = p / d1
    R = rho * d1 / d2
    H = _entropy(ctx, entropy)
    f = _affine(1, eps, _phi(ctx, 0))
    gen = standard_basis(ctx)[2].scale(-2).with_label("-2*X3")
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_bateman")
    return OneParamFamily(m.name, m, "eps", "linear", Expr.const(ctx, 1), gen)


def one_param_q13(ctx: Context, q12=0, q13=1,
                  entropy="identity") -> OneParamFamily:
    """Flow of the rotation-coupled branch; leaf lam = tan(eps*q13)."""
    v = lambda n: Expr.var(ctx, n)
    q12e, q13e = _exprs(ctx, q12=q12, q13=q13)
    if q13e.is_zero():
        raise InvalidParams("one_param_q13 requires q13 != 0")
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    lam = v("lam")
    q2 = u ** 2 + vv ** 2
    den = q13e - lam * (p + q12e)
    U = q13e * (u - lam * vv) / den
    V = q13e * (vv + lam * u) / den
    R = rho * (lam * (p + q12e) - q13e) / (lam * (p + q12e + rho * q2) - q13e)
    P = (q13e * p + lam * (p * q12e + q12e ** 2 + q13e ** 2)) / den
    H = _entropy(ctx, entropy)

    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, q13e, -q13e)
    (A1, B1), (A2, B2) = flux_matrix(params)
    opl = 1 + lam ** 2
    lq = lam / q13e
    f = (((1 - lam ** 2 - lq * (A1 - lam * A2)) / opl,
          (-2 * lam - lq * (B1 - lam * B2)) / opl),
         ((2 * lam - lq * (A2 + lam * A1)) / opl,
          (1 - lam ** 2 - lq * (B2 + lam * B1)) / opl))
    gen = case_generators("b", params, ctx, k=1)
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_q13")
    return OneParamFamily(m.name, m, "lam", "tan", q13e, gen)


def one_param_exp(ctx: Context, k1=1, k2=1, q12=0,
                  entropy="identity") -> OneParamFamily:
    """Flow of the scaling-coupled branch (k1 != 0); leaf lam = exp(k1*eps)."""
    v = lambda n: Expr.var(ctx, n)
    k1e, k2e, q12e = _exprs(ctx, k1=k1, k2=k2, q12=q12)
    if k1e.is_zero():
        raise InvalidParams("one_param_exp requires k1 != 0")
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    lam = v("lam")
    q2 = u ** 2 + vv ** 2
    lm = lam ** 2 - 1
    den = k2e * lm * (p + q12e) - 2 * k1e
    U = -2 * k1e * u * lam / den
    V = -2 * k1e * vv * lam / den
    R = rho * den / (k2e * lm * (p + q12e + rho * q2) - 2 * k1e)
    P = (k2e * q12e * (p + q12e) * (1 - lam ** 2)
         + 2 * k1e * (q12e * (1 - lam ** 2) - lam ** 2 * p)) / den
    H = _entropy(ctx, entropy)
    il2 = lam ** (-2)
    scale = k2e * (1 - lam ** 2) / (2 * k1e) * il2

    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, 0, 0)
    f = _affine(il2, scale, flux_matrix(params))
    gen = case_generators("c", params, ctx, k1=k1e, k2=k2e)
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_exp")
    return OneParamFamily(m.name, m, "lam", "exp", k1e, gen)


def one_param_linear(ctx: Context, k2=1, q12=0,
                     entropy="identity") -> OneParamFamily:
    """Flow of the pure pressure-inversion branch (k1 = 0); leaf a = k2*eps."""
    v = lambda n: Expr.var(ctx, n)
    k2e, q12e = _exprs(ctx, k2=k2, q12=q12)
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    a = v("a")
    q2 = u ** 2 + vv ** 2
    den = 1 - a * (p + q12e)
    U = u / den
    V = vv / den
    R = rho * den / (1 - a * (p + q12e + rho * q2))
    # sign of the q12 correction fixed by the k1 -> 0 limit of the
    # exponential branch and by d p'/d eps = k2*(p' + q12)^2
    P = (p + a * q12e * (p + q12e)) / den
    H = _entropy(ctx, entropy)
    f = _affine(1, -a, _phi(ctx, q12e))
    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, 0, 0)
    gen = case_generators("c", params, ctx, k1=0, k2=k2e)
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_linear")
    return OneParamFamily(m.name, m, "a", "linear", k2e, gen)


def theorem_map(ctx: Context, alpha=None, beta=None, k=None, a11=1,
                a34=None, a35=None, a45=None, psi="formal",
                entropy="formal") -> ReciprocalMap:
    """The general family produced by the megaideal analysis (a35 != 0)."""
    v = lambda n: Expr.var(ctx, n)
    alpha, beta, k, a11, a34, a35, a45 = _exprs(
        ctx, alpha=alpha, beta=beta, k=k, a11=a11, a34=a34, a35=a35, a45=a45)
    if a35.is_zero():
        raise InvalidParams("theorem map requires a35 != 0")
    if (alpha ** 2 + beta ** 2).is_zero():
        raise InvalidParams("alpha^2 + beta^2 != 0 required")
    if not (a11 ** 2 - 1).is_zero():
        raise InvalidParams("a11^2 = 1 required")
    psi_e = _psi(ctx, psi)
    g = a34 / a35
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    q2 = u ** 2 + vv ** 2
    pg = p - g
    ab2 = alpha ** 2 + beta ** 2
    R = 2 * rho * pg / (psi_e ** 2 * a35 * ab2 * (p + rho * q2 - g))
    P = -a45 / a35 - 2 / (a35 * pg)
    U = psi_e * (alpha * vv + beta * u) / pg
    V = a11 * psi_e * (-alpha * u + beta * vv) / pg
    H = _entropy(ctx, entropy)
    f = mul2(((-k * beta, -k * alpha), (k * a11 * alpha, -k * a11 * beta)),
             _phi(ctx, -g))
    return reciprocal_map(ctx, R, U, V, P, H, f, name="theorem")


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
