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

from ..gasdyn import (ConservationFormParams, InvalidParams,
                      ParamConstraintViolated)
from ..liealg import Generator, standard_basis
from ..prolong import case_generators
from ..symkernel import Context, Expr
from .maps import (LEAVES, OneParamFamily, PointMap, ReciprocalMap,
                   UnknownCatalogEntry, identity_map, point_map,
                   reciprocal_map)


def _conv(ctx, x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        raise InvalidParams("%r is not a number or an expression" % x)
    return Expr.const(ctx, x)


def _entropy(ctx, entropy: str) -> Expr:
    if entropy == "identity":
        return Expr.var(ctx, "S")
    if entropy == "formal":
        return Expr.function(ctx, "F", Expr.var(ctx, "S"))
    raise ParamConstraintViolated("entropy must be 'identity' or 'formal'")


def _psi(ctx, psi):
    if psi == "formal":
        return Expr.function(ctx, "psi", Expr.var(ctx, "S"))
    return _conv(ctx, psi)


def _family(T: ReciprocalMap, symbol: str, leaf: str, rate: Expr,
            gen: Generator) -> OneParamFamily:
    """The family T_eps over the leaf `symbol`.  When its entropy map is
    S -> S, its inverse is the member T_-eps, read from the group-inverse
    leaf of LEAVES; a formal entropy map H = F(S) gets no inverse."""
    S = Expr.var(T.ctx, "S")
    if T.H == S:
        sub = {symbol: LEAVES[leaf][1](Expr.var(T.ctx, symbol))}
        inverse = {n: e.substitute(sub) for n, e in T.field_map().items()
                   if n != "S"}
        inverse["S"] = S
        T = replace(T, inverse_fields=inverse)
    return OneParamFamily(T.name, T, symbol, leaf, rate, gen)


def bateman(ctx: Context, b1=None, b2=None, b3=None, b4=None,
            entropy="formal") -> ReciprocalMap:
    """The four-parameter pressure-inversion family (b1*b3 != 0)."""
    v = lambda n: Expr.var(ctx, n)
    b1 = _conv(ctx, b1) if b1 is not None else v("b1")
    b2 = _conv(ctx, b2) if b2 is not None else v("b2")
    b3 = _conv(ctx, b3) if b3 is not None else v("b3")
    b4 = _conv(ctx, b4) if b4 is not None else v("b4")
    if b1.is_zero() or b3.is_zero():
        raise ParamConstraintViolated("bateman requires b1*b3 != 0")
    rho, u, vv, p, S = (v(n) for n in ("rho", "u", "v", "p", "S"))
    w = p + b2
    q2 = u ** 2 + vv ** 2
    c = b1 ** 2 * b3
    U = b1 * u / w
    V = b1 * vv / w
    P = b4 - c / w
    R = b3 * rho * w / (w + rho * q2)
    H = _entropy(ctx, entropy)
    f = ((( p + b2 + rho * vv ** 2) / b1, -rho * u * vv / b1),
         ((-rho * u * vv) / b1, (p + b2 + rho * u ** 2) / b1))
    inverse = None
    if entropy == "identity":
        wp = c / (b4 - p)
        inverse = {
            "p": wp - b2,
            "u": u * wp / b1,
            "v": vv * wp / b1,
            "rho": rho * (b4 - p) / (b3 * (b4 - p - rho * q2)),
            "S": S,
        }
    return reciprocal_map(ctx, R, U, V, P, H, f, name="bateman",
                          params={"b1": b1, "b2": b2, "b3": b3, "b4": b4},
                          inverse_fields=inverse)


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
    f = ((1 + eps * (p + rho * vv ** 2), -eps * rho * u * vv),
         (-eps * rho * u * vv, 1 + eps * (p + rho * u ** 2)))
    gen = standard_basis(ctx)[2].scale(-2).with_label("-2*X3")
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_bateman")
    return _family(m, "eps", "linear", Expr.const(ctx, 1), gen)


def one_param_q13(ctx: Context, q12=0, q13=1,
                  entropy="identity") -> OneParamFamily:
    """Flow of the rotation-coupled branch; leaf lam = tan(eps*q13)."""
    v = lambda n: Expr.var(ctx, n)
    q12e, q13e = _conv(ctx, q12), _conv(ctx, q13)
    if q13e.is_zero():
        raise ParamConstraintViolated("one_param_q13 requires q13 != 0")
    rho, u, vv, p = (v(n) for n in ("rho", "u", "v", "p"))
    lam = v("lam")
    q2 = u ** 2 + vv ** 2
    den = q13e - lam * (p + q12e)
    U = q13e * (u - lam * vv) / den
    V = q13e * (vv + lam * u) / den
    R = rho * (lam * (p + q12e) - q13e) / (lam * (p + q12e + rho * q2) - q13e)
    P = (q13e * p + lam * (p * q12e + q12e ** 2 + q13e ** 2)) / den
    H = _entropy(ctx, entropy)

    A1 = p + q12e + rho * vv ** 2
    B1 = -(rho * u * vv + q13e)
    A2 = -(rho * u * vv - q13e)
    B2 = p + q12e + rho * u ** 2
    opl = 1 + lam ** 2
    lq = lam / q13e
    f = (((1 - lam ** 2 - lq * (A1 - lam * A2)) / opl,
          (-2 * lam - lq * (B1 - lam * B2)) / opl),
         ((2 * lam - lq * (A2 + lam * A1)) / opl,
          (1 - lam ** 2 - lq * (B2 + lam * B1)) / opl))

    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, q13e, -q13e)
    gen = case_generators("b", params, ctx, k=1)
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_q13",
                       params={"q12": q12e, "q13": q13e})
    return _family(m, "lam", "tan", q13e, gen)


def one_param_exp(ctx: Context, k1=1, k2=1, q12=0,
                  entropy="identity") -> OneParamFamily:
    """Flow of the scaling-coupled branch (k1 != 0); leaf lam = exp(k1*eps)."""
    v = lambda n: Expr.var(ctx, n)
    k1e, k2e, q12e = _conv(ctx, k1), _conv(ctx, k2), _conv(ctx, q12)
    if k1e.is_zero():
        raise ParamConstraintViolated("one_param_exp requires k1 != 0")
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

    A1 = p + q12e + rho * vv ** 2
    B1 = -rho * u * vv
    A2 = -rho * u * vv
    B2 = p + q12e + rho * u ** 2
    scale = k2e * (1 - lam ** 2) / (2 * k1e)
    il2 = lam ** (-2)
    f = (((1 + scale * A1) * il2, scale * B1 * il2),
         (scale * A2 * il2, (1 + scale * B2) * il2))

    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, 0, 0)
    gen = case_generators("c", params, ctx, k1=k1e, k2=k2e)
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_exp",
                       params={"k1": k1e, "k2": k2e, "q12": q12e})
    return _family(m, "lam", "exp", k1e, gen)


def one_param_linear(ctx: Context, k2=1, q12=0,
                     entropy="identity") -> OneParamFamily:
    """Flow of the pure pressure-inversion branch (k1 = 0); leaf a = k2*eps."""
    v = lambda n: Expr.var(ctx, n)
    k2e, q12e = _conv(ctx, k2), _conv(ctx, q12)
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
    f = ((1 - a * (p + q12e + rho * vv ** 2), a * rho * u * vv),
         (a * rho * u * vv, 1 - a * (p + q12e + rho * u ** 2)))
    params = ConservationFormParams.make(ctx, 1, 1, q12e, q12e, 0, 0)
    gen = case_generators("c", params, ctx, k1=0, k2=k2e)
    m = reciprocal_map(ctx, R, U, V, P, H, f, name="one_param_linear",
                       params={"k2": k2e, "q12": q12e})
    return _family(m, "a", "linear", k2e, gen)


def theorem_map(ctx: Context, alpha=None, beta=None, k=None, a11=1,
                a34=None, a35=None, a45=None, psi="formal",
                entropy="formal") -> ReciprocalMap:
    """The general family produced by the megaideal analysis (a35 != 0)."""
    v = lambda n: Expr.var(ctx, n)
    alpha = _conv(ctx, alpha) if alpha is not None else v("alpha")
    beta = _conv(ctx, beta) if beta is not None else v("beta")
    k = _conv(ctx, k) if k is not None else v("k")
    a11 = _conv(ctx, a11)
    a34 = _conv(ctx, a34) if a34 is not None else v("a34")
    a35 = _conv(ctx, a35) if a35 is not None else v("a35")
    a45 = _conv(ctx, a45) if a45 is not None else v("a45")
    if a35.is_zero():
        raise ParamConstraintViolated("theorem map requires a35 != 0")
    if (alpha ** 2 + beta ** 2).is_zero():
        raise ParamConstraintViolated("alpha^2 + beta^2 != 0 required")
    if not (a11 ** 2 - 1).is_zero():
        raise ParamConstraintViolated("a11^2 = 1 required")
    psi_e = _psi(ctx, psi)
    g = a34 / a35
    rho, u, vv, p, S = (v(n) for n in ("rho", "u", "v", "p", "S"))
    q2 = u ** 2 + vv ** 2
    pg = p - g
    ab2 = alpha ** 2 + beta ** 2
    R = 2 * rho * pg / (psi_e ** 2 * a35 * ab2 * (p + rho * q2 - g))
    P = -a45 / a35 - 2 / (a35 * pg)
    U = psi_e * (alpha * vv + beta * u) / pg
    V = a11 * psi_e * (-alpha * u + beta * vv) / pg
    H = _entropy(ctx, entropy)
    ruv = rho * u * vv
    f = ((k * (alpha * ruv - beta * (p + rho * vv ** 2 - g)),
          k * (-alpha * (p + rho * u ** 2 - g) + beta * ruv)),
         (k * a11 * (alpha * (p + rho * vv ** 2 - g) + beta * ruv),
          -k * a11 * (alpha * ruv + beta * (p + rho * u ** 2 - g))))
    inverse = None
    if entropy == "identity":
        pg_p = -2 / (a35 * p + a45)
        p_inv = g + pg_p
        u_inv = pg_p * (beta * u - alpha * a11 * vv) / (psi_e * ab2)
        v_inv = pg_p * (alpha * u + beta * a11 * vv) / (psi_e * ab2)
        c2 = psi_e ** 2 * a35 * ab2
        q2_inv = u_inv ** 2 + v_inv ** 2
        rho_inv = rho * c2 * pg_p / (2 * pg_p - rho * c2 * q2_inv)
        inverse = {"p": p_inv, "u": u_inv, "v": v_inv, "rho": rho_inv,
                   "S": S}
    return reciprocal_map(
        ctx, R, U, V, P, H, f, name="theorem",
        params={"alpha": alpha, "beta": beta, "k": k, "a11": a11,
                "a34": a34, "a35": a35, "a45": a45},
        inverse_fields=inverse)


def mu_plus(ctx: Context, a33=1, a54=0, a11=1, alpha=1, beta=0,
            psi="formal", entropy="formal") -> ReciprocalMap:
    """Constant-form branch; equivalent to an equivalence transformation."""
    v = lambda n: Expr.var(ctx, n)
    a33e, a54e, a11e = _conv(ctx, a33), _conv(ctx, a54), _conv(ctx, a11)
    alpha_e, beta_e = _conv(ctx, alpha), _conv(ctx, beta)
    if a33e.is_zero():
        raise ParamConstraintViolated("a33 != 0 required")
    if not (a11e ** 2 - 1).is_zero():
        raise ParamConstraintViolated("a11^2 = 1 required")
    psi_e = _psi(ctx, psi)
    rho, u, vv, p, S = (v(n) for n in ("rho", "u", "v", "p", "S"))
    ab2 = alpha_e ** 2 + beta_e ** 2
    P = p / a33e - a54e
    R = rho / (a33e * psi_e ** 2 * ab2)
    U = psi_e * (alpha_e * u + beta_e * vv)
    V = a11e * psi_e * (alpha_e * vv - beta_e * u)
    H = _entropy(ctx, entropy)
    f = ((a11e * alpha_e, a11e * beta_e), (-beta_e, alpha_e))
    inverse = None
    if entropy == "identity":
        inverse = {
            "p": a33e * (p + a54e),
            "rho": a33e * psi_e ** 2 * ab2 * rho,
            "u": (alpha_e * u - beta_e * a11e * vv) / (psi_e * ab2),
            "v": (beta_e * u + alpha_e * a11e * vv) / (psi_e * ab2),
            "S": S,
        }
    return reciprocal_map(ctx, R, U, V, P, H, f, name="mu_plus",
                          params={"a33": a33e, "a54": a54e, "a11": a11e,
                                  "alpha": alpha_e, "beta": beta_e},
                          inverse_fields=inverse)


def mu_minus(ctx: Context, a33=1, a54=0, a11=1, alpha=1, beta=0,
             psi="formal", entropy="formal") -> ReciprocalMap:
    """Candidate from the opposite sign branch; fails the reciprocity
    verification except on isentropic irrotational solutions."""
    v = lambda n: Expr.var(ctx, n)
    a33e, a54e, a11e = _conv(ctx, a33), _conv(ctx, a54), _conv(ctx, a11)
    alpha_e, beta_e = _conv(ctx, alpha), _conv(ctx, beta)
    psi_e = _psi(ctx, psi)
    rho, u, vv, p, S = (v(n) for n in ("rho", "u", "v", "p", "S"))
    ab2 = alpha_e ** 2 + beta_e ** 2
    q2 = u ** 2 + vv ** 2
    P = p / a33e - a54e + rho * q2 / a33e
    R = -1 / (a33e * rho * psi_e ** 2 * ab2)
    U = rho * psi_e * (alpha_e * u + beta_e * vv)
    V = a11e * rho * psi_e * (alpha_e * vv - beta_e * u)
    H = _entropy(ctx, entropy)
    f = ((beta_e * a11e, -alpha_e * a11e), (alpha_e, beta_e))
    return reciprocal_map(ctx, R, U, V, P, H, f, name="mu_minus",
                          params={"a33": a33e, "a54": a54e, "a11": a11e,
                                  "alpha": alpha_e, "beta": beta_e})


def munk_prim(ctx: Context, psi="formal") -> PointMap:
    """Projective velocity/density rescaling by a function of entropy."""
    v = lambda n: Expr.var(ctx, n)
    psi_e = _psi(ctx, psi)
    return point_map(ctx, R=v("rho") / psi_e ** 2, U=v("u") * psi_e,
                     V=v("v") * psi_e, name="munk_prim")


def involution_E1(ctx: Context) -> PointMap:
    v = lambda n: Expr.var(ctx, n)
    return point_map(ctx, Xc=-v("x"), U=-v("u"), name="E1")


def involution_E2(ctx: Context) -> PointMap:
    v = lambda n: Expr.var(ctx, n)
    return point_map(ctx, Yc=-v("y"), V=-v("v"), name="E2")


def involution_E1_reciprocal(ctx: Context) -> ReciprocalMap:
    v = lambda n: Expr.var(ctx, n)
    fields = {n: v(n) for n in ("rho", "u", "v", "p", "S")}
    fields["u"] = -v("u")
    return reciprocal_map(ctx, fields["rho"], fields["u"], fields["v"],
                          fields["p"], fields["S"], ((-1, 0), (0, 1)),
                          name="E1", inverse_fields=dict(fields))


def involution_E2_reciprocal(ctx: Context) -> ReciprocalMap:
    v = lambda n: Expr.var(ctx, n)
    fields = {n: v(n) for n in ("rho", "u", "v", "p", "S")}
    fields["v"] = -v("v")
    return reciprocal_map(ctx, fields["rho"], fields["u"], fields["v"],
                          fields["p"], fields["S"], ((1, 0), (0, -1)),
                          name="E2", inverse_fields=dict(fields))


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
    "E1_point": involution_E1,
    "E2_point": involution_E2,
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
