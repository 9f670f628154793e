"""Symbolic and numeric verification of transformations.

A map is accepted as reciprocal when, on the solution manifold of the
governing system, (i) the four conserved flux forms written in transformed
quantities pull back to closed forms, and (ii) the transformed coordinate
differentials themselves are closed.  Both groups reduce to exact zero
tests in the symbolic kernel; failures produce rational witness points.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from ..gasdyn import (FIELDS, RESIDUAL_NAMES, InvalidParams, OneForm,
                      closedness_residuals, conservation_law_forms,
                      reduce_on_manifold, system_residuals, total_derivative)
from ..liealg import AutomorphismMatrix, SingularMatrix, automorphism_symbols
from ..reports import CheckItem, Report
from ..symkernel import (FIXED_BITS, QQ, Expr, compile_exprs,
                         compile_exprs_fixed, substitute_all)
from ..symkernel.errors import DivisionByZeroExpr, NumericDomain
from ..symkernel.linalg import adj2, det2, mul2
from .maps import LEAVES, OneParamFamily, ReciprocalMap, compose

DEFAULT_SEED = 20240801

WITNESS_ATTEMPTS = 200     # seeded rational draws of witness_point
# eps ranges and singular-set guards of the Lie and additivity checks
LIE_EPS, LIE_GUARD, LIE_RATE_GUARD = 0.25, 0.3, 6.0
ADD_EPS, ADD_GUARD = 0.125, 5e-2

RECIP_LAW_NAMES = ("mass-flux", "momentum-y-flux", "momentum-x-flux",
                   "entropy-flux")
COMPONENT_NAMES = ("R", "U", "V", "P", "H", "f11", "f12", "f21", "f22")


# --- reciprocity -------------------------------------------------------------


def transformed_law_residuals(T: ReciprocalMap, solve_for: str = "x"):
    """Closedness residuals of the four conserved forms written in primed
    fields and pulled back through the form matrix."""
    laws = conservation_law_forms(T.ctx)
    primed = substitute_all([c for law in laws for c in (law.cx, law.cy)],
                            T.field_map())
    pulled = [OneForm(*(cxp * a + cyp * b for a, b in zip(*T.f)))
              for cxp, cyp in zip(primed[::2], primed[1::2])]
    return list(zip(RECIP_LAW_NAMES, reduce_on_manifold(
        [w.exterior_derivative() for w in pulled], solve_for)))


def residual_report(title: str, residuals, side_conditions=(),
                    seed: int = DEFAULT_SEED) -> Report:
    """The verdict on exact residuals: one item per (name, residual),
    passing when the residual is zero, the side conditions it holds under,
    and a witness point of the first nonzero residual."""
    rep = Report(title, side_conditions=list(side_conditions))
    for name, r in residuals:
        rep.add(name, r.is_zero(), "" if r.is_zero() else "residual nonzero")
    bad = next(((n, r) for n, r in residuals if not r.is_zero()), None)
    w = bad and witness_point(bad[1], seed=seed)
    if w:
        rep.witness = {k: str(v) for k, v in sorted(w[0].items())}
        rep.witness["__residual__"] = "%s = %s" % (bad[0], _value_text(w[1]))
    return rep


def _value_text(q) -> str:
    """str(q) of a rational, or, when its digits pass Python's limit on
    integer string conversion, its sign, a decimal approximation and the
    digit counts of its numerator and denominator."""
    try:
        return str(q)
    except ValueError:
        pass
    num, den = abs(q.numerator), q.denominator
    lg = math.log10(num) - math.log10(den)
    exp = math.floor(lg)
    mant, shift = ("%.6e" % 10 ** (lg - exp)).split("e")
    return "%s%se%+d (approximately; %d-digit numerator, %d-digit " \
        "denominator)" % ("-" if q < 0 else "", mant, exp + int(shift),
                          _digits(num), _digits(den))


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, without converting it."""
    d = int(math.log10(n)) + 1     # off by at most one near a power of 10
    if 10 ** (d - 1) > n:
        return d - 1
    return d + 1 if 10 ** d <= n else d


def verify_reciprocal(T: ReciprocalMap, solve_for: str = "x",
                      seed: int = DEFAULT_SEED) -> Report:
    rep = residual_report(
        "reciprocity of %s" % (T.name or "map"),
        transformed_law_residuals(T, solve_for)
        + closedness_residuals(T.f, solve_for),
        ["%s != 0" % d for d in T.denominators()], seed)
    det = T.det_f()
    rep.add("det-form-matrix-nonzero", not det.is_zero(), str(det))
    rep.add("density-map-nonzero", not T.R.is_zero(), str(T.R))
    rep.extras["form_matrix_constant"] = all(
        not e.depends_on(*FIELDS) for row in T.f for e in row)
    return rep


def witness_point(residual: Expr, seed: int = DEFAULT_SEED):
    """Rational point where the residual evaluates to a nonzero value."""
    rng = random.Random(seed)
    ctx = residual.ctx
    names = sorted(residual.free_variables())
    for _ in range(WITNESS_ATTEMPTS):
        point = {}
        for n in names:
            if n in ("rho", "p"):
                point[n] = QQ(rng.randint(32, 128), 64)
            elif n in ("u", "v"):
                point[n] = QQ(rng.choice([-1, 1]) * rng.randint(7, 128), 64)
            elif ctx.role(n) == "jet":
                point[n] = QQ(rng.randint(-64, 64), 64)
            else:
                point[n] = QQ(rng.choice([-1, 1]) * rng.randint(16, 128), 64)
        try:
            value = residual.eval_rational(point)
        except (DivisionByZeroExpr, ValueError, ZeroDivisionError):
            continue
        if value != 0:
            return point, value
    return None


# --- point symmetries ---------------------------------------------------------


def verify_point_symmetry(T: ReciprocalMap,
                          seed: int = DEFAULT_SEED) -> Report:
    """Chain-rule transformed residuals, with the form matrix as the
    coordinate Jacobian, reduce to combinations of the original system on
    the solution manifold."""
    detj = det2(T.f)
    residuals = []
    if not detj.is_zero():
        sub = T.field_map()
        a = adj2(T.f)
        jets = {}
        for fname in FIELDS:
            dx, dy = (total_derivative(sub[fname], c) for c in ("x", "y"))
            # (D_x phi, D_y phi)^T = J^T (f_x', f_y')^T for phi = sub[fname]
            jets["%s_x" % fname] = (a[0][0] * dx + a[1][0] * dy) / detj
            jets["%s_y" % fname] = (a[0][1] * dx + a[1][1] * dy) / detj
        residuals = list(zip(RESIDUAL_NAMES, reduce_on_manifold(
            substitute_all(system_residuals(T.ctx), {**sub, **jets}))))
    rep = residual_report("point symmetry of %s" % (T.name or "map"),
                          residuals,
                          ["%s != 0" % d for d in T.denominators()], seed)
    rep.items.insert(0, CheckItem("coordinate-jacobian-nonsingular",
                                  not detj.is_zero(), str(detj)))
    return rep


# --- one-parameter groups ----------------------------------------------------


def exact_lie_residuals(fam: OneParamFamily) -> list:
    """d/deps T_eps - X|_(T_eps) on the nine components, in the fields and
    the leaf t: by the leaf's ODE d/deps is c*g(t) d/dt, and X|_T is the
    generator's field slots at T's fields and, for the form rows, M(T) f."""
    T = fam.map_sym
    rate = fam.rate * LEAVES[fam.leaf].ode(Expr.var(fam.ctx, fam.symbol))
    z = substitute_all(fam.generator.slots(), T.field_map())
    want = z[:5] + [e for row in mul2((z[5:7], z[7:9]), T.f) for e in row]
    return [("Lie %s" % n, c.diff(fam.symbol) * rate - w)
            for n, c, w in zip(COMPONENT_NAMES, T.components(), want)]


def exact_additivity_residuals(fam: OneParamFamily) -> list:
    """T_t1 . T_t2 - T_(t1 (+) t2) on the nine components, over fresh leaf
    atoms t1, t2 and the leaf's addition law."""
    ctx = fam.ctx
    for n in ("t1", "t2"):
        ctx.ensure(n)
    t1, t2 = Expr.var(ctx, "t1"), Expr.var(ctx, "t2")
    lhs = compose(fam.map_at(t1), fam.map_at(t2)).components()
    rhs = fam.map_at(LEAVES[fam.leaf].add(t1, t2)).components()
    return [("additivity %s" % n, a - b)
            for n, a, b in zip(COMPONENT_NAMES, lhs, rhs)]


def verify_flow(fam: OneParamFamily, seed: int = DEFAULT_SEED) -> Report:
    """Lie equation and composition additivity of fam, decided exactly,
    under the side conditions d != 0 for the denominators d of its map (in
    the leaf; for additivity, read at t1, t2 and t1 (+) t2)."""
    return residual_report(
        "flow of %s" % fam.name,
        exact_lie_residuals(fam) + exact_additivity_residuals(fam),
        ["%s != 0" % d for d in fam.map_sym.denominators()], seed)


# --- numeric state sampling -----------------------------------------------------


def sample_float_state(rng: random.Random) -> dict:
    """Fields drawn from the documented safe ranges: rho, p in [1/2, 2],
    velocities in [-2, 2] with |u|, |v| >= 1/10, S in [1/2, 2]."""
    def vel():
        while True:
            x = rng.uniform(-2.0, 2.0)
            if abs(x) >= 0.1:
                return x
    return {
        "rho": rng.uniform(0.5, 2.0),
        "p": rng.uniform(0.5, 2.0),
        "u": vel(),
        "v": vel(),
        "S": rng.uniform(0.5, 2.0),
    }


LieCheckResult = namedtuple("LieCheckResult", "max_residual samples")


def _require_points(fam: OneParamFamily, n_points: int):
    """The family's exact rate; refuses a symbolic rate (NumericDomain) and
    an empty sample."""
    try:
        q = fam.rate.as_rational()
    except ValueError:
        raise NumericDomain(
            "family %s has symbolic parameters" % fam.name) from None
    if n_points < 1:
        raise InvalidParams("need at least one sample point, got %d"
                            % n_points)
    return q


def _eval_poly_mp(evaluate, assign):
    """Values of a compiled integer evaluator (compile_exprs_fixed) at one
    assignment, as floor(value * 2^FIXED_BITS); every evaluation of the
    Lie check goes through here."""
    return evaluate(assign)


def _fixed(x) -> int:
    """floor(x * 2^FIXED_BITS) of a double or an mpf: exact unless x has
    more than FIXED_BITS fractional bits."""
    if isinstance(x, float):
        num, den = x.as_integer_ratio()
        return (num << FIXED_BITS) // den
    sign, man, exp, _ = x._mpf_       # x = (-1)^sign * man * 2^exp
    if sign:
        man = -man
    shift = exp + FIXED_BITS
    return man << shift if shift >= 0 else man >> -shift


def lie_equation_check(fam: OneParamFamily, n_points: int = 100,
                       seed: int = DEFAULT_SEED,
                       step: float = 1e-6) -> LieCheckResult:
    """Max over seeded samples of |d/deps T_eps - zeta(T_eps)| on all nine
    component slots; the eps-derivative is a central difference with the
    given step.  The stencil nodes eps +- step, the rate and the leaf values
    there are taken to 40 digits; everything else is integer arithmetic at
    the scale 2^-FIXED_BITS (compile_exprs_fixed), exact for the map's
    values at those dyadic inputs and floored once per value, so the
    reported residual is the O(step^2) truncation term, not rounding noise.

    Samples keep a margin from the family's singular sets: a point is
    redrawn when any component denominator falls below LIE_GUARD in
    absolute value at a stencil node, or when its logarithmic
    eps-derivative exceeds LIE_RATE_GUARD (which would inflate the
    truncation term cubically).  Only the lie-flow benchmark runs this
    check; verify_flow decides the Lie equation exactly.
    """
    import mpmath
    q = _require_points(fam, n_points)
    rng = random.Random(seed)
    T = fam.map_sym
    gen = fam.generator
    dens = compile_exprs_fixed(T.denominators())
    comps = compile_exprs_fixed(T.components())
    # the five generator fields, then the generator matrix row by row
    zeta = compile_exprs_fixed(list(gen.field_slots())
                               + [e for row in gen.matrix() for e in row])
    # floor(v * 2^F) lies in [-G, G) exactly when v lies in [-g, g), for
    # the dyadic g = LIE_GUARD and G = g * 2^F
    guard = _fixed(LIE_GUARD)
    rate_num, rate_den = LIE_RATE_GUARD.as_integer_ratio()
    # the central difference (hi - lo) / (2 step) is (hi - lo) * sd / two_h
    sn, sd = step.as_integer_ratio()
    two_h = 2 * sn
    worst = 0           # the largest residual, times two_h * 2^F
    done = 0
    attempts = 0
    law = LEAVES[fam.leaf].law
    with mpmath.workdps(40):
        mstep = mpmath.mpf(step)
        rate = mpmath.mpf(q.numerator) / q.denominator
        while done < n_points:
            attempts += 1
            if attempts > 500 * n_points:
                raise NumericDomain(
                    "could not sample away from singular sets")
            state = sample_float_state(rng)
            eps = mpmath.mpf(rng.uniform(-LIE_EPS, LIE_EPS))
            fstate = {k: _fixed(v) for k, v in state.items()}
            stencil = []
            den_vals = []
            for e in (eps - mstep, eps, eps + mstep):
                a = dict(fstate)
                a[fam.symbol] = _fixed(law(rate * e, mpmath))
                row = _eval_poly_mp(dens, a)
                if any(-guard <= val < guard for val in row):
                    break
                stencil.append(a)
                den_vals.append(row)
            if len(stencil) < 3:
                continue
            # |hi - lo| / (2 step |mid|) > LIE_RATE_GUARD
            if any(abs(hi - lo) * sd * rate_den > two_h * rate_num * abs(mid)
                   for lo, mid, hi in zip(*den_vals)):
                continue
            vals = [_eval_poly_mp(comps, a) for a in stencil]
            z = _eval_poly_mp(zeta, dict(zip(FIELDS, vals[1])))
            # d/deps of the fields is zeta; of the form matrix, M_zeta f
            mz = ((z[5], z[6]), (z[7], z[8]))
            fmid = ((vals[1][5], vals[1][6]), (vals[1][7], vals[1][8]))
            want = z[:5] + [e >> FIXED_BITS for row in mul2(mz, fmid)
                            for e in row]
            worst = max(worst, *(abs((hi - lo) * sd - two_h * w)
                                 for lo, hi, w in zip(vals[0], vals[2],
                                                      want)))
            done += 1
    return LieCheckResult(worst / (two_h << FIXED_BITS), n_points)


def composition_additivity(fam: OneParamFamily, n_points: int = 100,
                           seed: int = DEFAULT_SEED) -> float:
    """Max deviation |T_e1(T_e2(x)) - T_{e1+e2}(x)| over seeded samples,
    kept ADD_GUARD away from the map's singular sets; only the lie-flow
    benchmark runs it (verify_flow decides additivity exactly)."""
    rate = float(_require_points(fam, n_points))
    law = LEAVES[fam.leaf].law
    T = fam.map_sym
    fields = compile_exprs(T.components()[:5])
    dens = compile_exprs(T.denominators())

    def margin(a):
        """Smallest |denominator| of the map at the point."""
        return min((abs(d) for d in dens(a)), default=float("inf"))

    def at(eps, state):
        """The state with the leaf at eps."""
        return {**state, fam.symbol: law(rate * eps, math)}

    rng = random.Random(seed)
    worst = 0.0
    done = 0
    attempts = 0
    while done < n_points:
        attempts += 1
        if attempts > 50 * n_points:
            raise NumericDomain("could not sample away from singular sets")
        state = sample_float_state(rng)
        e1 = rng.uniform(-ADD_EPS, ADD_EPS)
        e2 = rng.uniform(-ADD_EPS, ADD_EPS)
        try:
            a2 = at(e2, state)
            if margin(a2) < ADD_GUARD:
                continue
            inner = dict(zip(FIELDS, fields(a2)))
            inner["S"] = state["S"]
            a1 = at(e1, inner)
            a12 = at(e1 + e2, state)
            if min(margin(a1), margin(a12)) < ADD_GUARD:
                continue
            outer_fields = fields(a1)
            direct_fields = fields(a12)
        except NumericDomain:
            continue
        for a, b in zip(outer_fields, direct_fields):
            worst = max(worst, abs(a - b))
        done += 1
    return worst


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


def verify_automorphism_solution(A: AutomorphismMatrix,
                                 constraints) -> Report:
    """One item per constraint on the a_ni, passing when it vanishes at the
    entries of A; det A is extras["det"], and a zero one raises
    SingularMatrix."""
    det = A.det()
    if det.is_zero():
        raise SingularMatrix("det A normalizes to 0")
    bindings = {str(a): e for names, row in zip(
        automorphism_symbols(det.ctx), A.entries) for a, e in zip(names, row)}
    values = substitute_all(constraints, bindings)
    rep = residual_report("automorphism check",
                          [("constraint %d" % (i + 1), c)
                           for i, c in enumerate(values)])
    rep.extras["det"] = det
    return rep
