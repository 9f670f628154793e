"""The paper's cross-checks that no command runs: the appendix transport
relations of a reciprocal map and the first method's ansatz in the zp = 0
case.  The tests run them; the package does not use them."""

from recipgas.gasdyn import ConservationFormParams, flux_matrix
from recipgas.liealg import AutomorphismMatrix, Generator, generator
from recipgas.prolong import (AnsatzSolution, _monomials, _solve_ansatz,
                              form_coeffs_from_invariance)
from recipgas.reports import Report
from recipgas.symkernel import Context, Expr
from recipgas.symkernel.linalg import det2
from recipgas.transforms import ReciprocalMap
from recipgas.transforms.verify import residual_report


# --- first-order transport relations -----------------------------------------


def appendix_pde_residuals(T: ReciprocalMap,
                           A: AutomorphismMatrix) -> Report:
    """Residuals of the displayed first-order relations tying the partial
    derivatives of the map components to the automorphism coefficients.

    Left-hand sides are exact derivatives of T's components; right-hand
    sides are the stated closed forms.  The center multiplier a11 enters
    only the center relations (center_pde_residuals).
    """
    ctx = T.ctx
    v = lambda n: Expr.var(ctx, n)
    rho, u, vv, p = v("rho"), v("u"), v("v"), v("p")
    (a33, a34, a35), (a43, a44, a45), (a53, a54, a55) = A.entries
    R, U, V, P, H = T.R, T.U, T.V, T.P, T.H
    f11, f12, f21, f22 = T.f[0][0], T.f[0][1], T.f[1][0], T.f[1][1]

    q2 = u ** 2 + vv ** 2
    D2 = 2 * rho ** 2 * q2
    alf = a35 * p ** 2 - 2 * a34 * p + 2 * a33
    bet = a45 * p ** 2 - 2 * a44 * p + 2 * a43
    gam = a55 * p ** 2 - 2 * a54 * p + 2 * a53
    alf1 = -a35 * p + a34
    bet1 = -a45 * p + a44
    gam1 = -a55 * p + a54
    U2V2 = U ** 2 + V ** 2
    ruv = rho * u * vv

    relations = [
        ("R_rho", R.diff("rho"), R ** 2 * U2V2 * alf / D2),
        ("R_u", R.diff("u"),
         (-R.diff("v") * vv + R ** 2 * U2V2 * alf1) / u),
        ("R_p", R.diff("p"), R ** 2 * a35 * U2V2 / 2),
        ("U_rho", U.diff("rho"), (P * U * alf + U * bet) / D2),
        ("U_u", U.diff("u"),
         (-U.diff("v") * vv + P * U * alf1 + U * bet1) / u),
        ("U_p", U.diff("p"), (P * U * a35 + U * a45) / 2),
        ("V_rho", V.diff("rho"), (P * V * alf + V * bet) / D2),
        ("V_u", V.diff("u"),
         (-V.diff("v") * vv + P * V * alf1 + V * bet1) / u),
        ("V_p", V.diff("p"), (P * V * a35 + V * a45) / 2),
        ("P_rho", P.diff("rho"),
         (P ** 2 * alf + 2 * P * bet + 2 * gam) / D2),
        ("P_u", P.diff("u"),
         (-P.diff("v") * vv + P ** 2 * alf1 + 2 * P * bet1 + 2 * gam1) / u),
        ("P_p", P.diff("p"), (P ** 2 * a35 + 2 * P * a45 + 2 * a55) / 2),
        ("H_rho", H.diff("rho"), Expr.const(ctx, 0)),
        ("H_u", H.diff("u"), -H.diff("v") * vv / u),
        ("H_p", H.diff("p"), Expr.const(ctx, 0)),
    ]

    PV2 = P + R * V ** 2
    PU2 = P + R * U ** 2
    RUV = R * U * V
    relations += [
        ("xfdx_rho", f11.diff("rho"),
         (-f11 * PV2 * alf + f11 * (-bet + 2 * rho * vv ** 2)
          - 2 * f12 * ruv + f21 * RUV * alf) / D2),
        ("xfdx_u", f11.diff("u"),
         (-f11.diff("v") * vv + f11 * PV2 * (-alf1) + f11 * (-bet1 + 1)
          + f21 * RUV * alf1) / u),
        ("xfdx_p", f11.diff("p"),
         (-f11 * PV2 * a35 - f11 * a45 + f21 * RUV * a35) / 2),
        ("yfdx_rho", f12.diff("rho"),
         (-2 * f11 * ruv - f12 * PV2 * alf
          + f12 * (-bet + 2 * rho * u ** 2) + f22 * RUV * alf) / D2),
        ("yfdx_u", f12.diff("u"),
         (-f12.diff("v") * vv + f12 * PV2 * (-alf1) + f12 * (-bet1 + 1)
          + f22 * RUV * alf1) / u),
        ("yfdx_p", f12.diff("p"),
         (-f12 * PV2 * a35 - f12 * a45 + f22 * RUV * a35) / 2),
        ("xfdy_rho", f21.diff("rho"),
         (f11 * RUV * alf - f21 * PU2 * alf
          + f21 * (-bet + 2 * rho * vv ** 2) - 2 * f22 * ruv) / D2),
        ("xfdy_u", f21.diff("u"),
         (-f21.diff("v") * vv + f11 * RUV * alf1 + f21 * PU2 * (-alf1)
          + f21 * (-bet1 + 1)) / u),
        ("xfdy_p", f21.diff("p"),
         (f11 * RUV * a35 - f21 * PU2 * a35 - f21 * a45) / 2),
        ("yfdy_rho", f22.diff("rho"),
         (f12 * RUV * alf - 2 * f21 * ruv - f22 * PU2 * alf
          + f22 * (-bet + 2 * rho * u ** 2)) / D2),
        ("yfdy_u", f22.diff("u"),
         (-f22.diff("v") * vv + f12 * RUV * alf1 + f22 * PU2 * (-alf1)
          + f22 * (-bet1 + 1)) / u),
        ("yfdy_p", f22.diff("p"),
         (f12 * RUV * a35 - f22 * PU2 * a35 - f22 * a45) / 2),
    ]

    return residual_report("transport relations of %s" % (T.name or "map"),
                           [(n, lhs - rhs) for n, lhs, rhs in relations])


def center_pde_residuals(T: ReciprocalMap, a11, a33, a54) -> Report:
    """Residuals of the center-megaideal v-derivative relations (the
    constant-form branch shape)."""
    ctx = T.ctx
    v = lambda n: Expr.var(ctx, n)
    u, vv = v("u"), v("v")
    q2 = u ** 2 + vv ** 2
    p = v("p")
    R, U, V, P, H = T.R, T.U, T.V, T.P, T.H
    f11, f12, f21, f22 = T.f[0][0], T.f[0][1], T.f[1][0], T.f[1][1]
    relations = [
        ("R_v", R.diff("v"), Expr.const(ctx, 0)),
        ("U_v", U.diff("v"), (U * vv - V * a11 * u) / q2),
        ("V_v", V.diff("v"), (U * a11 * u + V * vv) / q2),
        ("P_v", P.diff("v"),
         (2 * P * a33 * vv + 2 * vv * (a54 * a33 - p)) / (a33 * q2)),
        ("H_v", H.diff("v"), Expr.const(ctx, 0)),
        ("xfdx_v", f11.diff("v"), -u * (f12 + f21 * a11) / q2),
        ("yfdx_v", f12.diff("v"), u * (f11 - f22 * a11) / q2),
        ("xfdy_v", f21.diff("v"), u * (f11 * a11 - f22) / q2),
        ("yfdy_v", f22.diff("v"), u * (f12 * a11 + f21) / q2),
    ]
    return residual_report(
        "center transport relations of %s" % (T.name or "map"),
        [(n, lhs - rhs) for n, lhs, rhs in relations])


# --- the first method's ansatz in the zp = 0 case ----------------------------


def first_method_generator(ctx: Context, params: ConservationFormParams,
                           zr=0, zu=0, zv=0, zp=0, zs=0) -> Generator:
    """The generator with field slots zr, zu, zv, zp, zs and the form
    slots that make both conserved flux forms invariant."""
    zdx, zdy = form_coeffs_from_invariance(ctx, params, zr, zu, zv, zp)
    return generator(ctx, zr=zr, zu=zu, zv=zv, zp=zp, zs=zs,
                     m=((zdx.cx, zdx.cy), (zdy.cx, zdy.cy)))


def solve_ansatz_first_method(ctx: Context, params: ConservationFormParams,
                              max_degree: int = 2) -> AnsatzSolution:
    """Two-step-method ansatz in the zp = 0 case: polynomial field slots
    zr, zu, zv, zs, form slots derived from invariance of the conserved
    forms.  Its solutions should be spanned by the two equivalence
    families at constant function slices."""
    delta = det2(flux_matrix(params))
    return _solve_ansatz(
        ["zr", "zu", "zv", "zs"], _monomials(ctx, max_degree),
        lambda s, value: first_method_generator(ctx, params, **{s: value}),
        Expr.var(ctx, "u") ** 4 * delta ** 2)
