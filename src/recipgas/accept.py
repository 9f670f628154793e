"""The acceptance suite: one callable per criterion, each returning a
Report.  Used by the command-line `paper-suite` subcommand and by the
acceptance tests.  All symbolic checks are exact; numeric checks are seeded
and deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .gasdyn import ConservationFormParams, standard_context
from .liealg import (AutomorphismMatrix, FunctionalConstant, commutator,
                     constant_slices, megaideal_constraints, membership,
                     reciprocal_algebra, standard_basis)
from .numerics import (ConstantFlow, GridSpec, ShearFlow, VortexFlow,
                       fd_residuals, loop_closedness, make_solution,
                       primed_coordinates, transform_convergence_ratios,
                       transform_solution)
from .prolong import (case_generators, determining_residuals,
                      form_coeffs_from_invariance, solve_ansatz)
from .reports import Report
from .symkernel import QQ, Expr, parse
from .transforms import (bateman, bateman_simplified, compose,
                         involution_E1_reciprocal, involution_E2_reciprocal,
                         mu_minus, one_param_bateman, one_param_exp,
                         one_param_linear, one_param_q13, pushforward,
                         pushforward_matrix, theorem_map,
                         verify_automorphism_solution, verify_flow,
                         verify_reciprocal)
from .transforms.verify import DEFAULT_SEED

ANSATZ_DEGREE = 4   # criterion 5: the full generator list needs degree 4
LOOP_TOL = 1e-8     # criterion 9: loop integrals of dx' and dy'

APPENDIX_NINE = (
    "a44*a33-a43*a34-a33", "a54*a33-a53*a34-a43", "a54*a43-a53*a44-a53",
    "a45*a33-a43*a35-a34", "a55*a33-a53*a35-a44", "a55*a43-a54-a53*a45",
    "a45*a34-a44*a35-a35", "a55*a34-a54*a35-a45", "a55*a44-a55-a54*a45",
)


def _expected_table():
    """The target commutator table over basis order X1..X5, Xh, XF."""
    exp = {}
    for i in range(7):
        for j in range(7):
            exp[(i, j)] = []
    exp[(2, 3)] = [(2, QQ(-1))]
    exp[(3, 2)] = [(2, QQ(1))]
    exp[(2, 4)] = [(3, QQ(-1))]
    exp[(4, 2)] = [(3, QQ(1))]
    exp[(3, 4)] = [(4, QQ(-1))]
    exp[(4, 3)] = [(4, QQ(1))]
    return exp


def criterion_1(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Commutator table of {X1..X5, Xh, XF}."""
    ctx = ctx or standard_context()
    rep = Report("criterion 1: commutator table")
    L = reciprocal_algebra(ctx)
    table = L.structure_constants()
    expected = _expected_table()
    ok = True
    for (i, j), entry in table.items():
        if {i, j} == {5, 6}:
            continue
        if entry != expected[(i, j)]:
            ok = False
            rep.add("entry (%d,%d)" % (i, j), False, str(entry))
    rep.add("constant entries match", ok)
    hf = table[(5, 6)]
    hprime_f = Expr.function(ctx, "h", Expr.var(ctx, "S"), orders=(1,)) * \
        Expr.function(ctx, "F", Expr.var(ctx, "S"))
    good = isinstance(hf, FunctionalConstant) and hf.coeff == -1 \
        and hf.factor == hprime_f and L.basis[hf.family].label == "Xh"
    rep.add("[Xh, XF] = -X[h'(S)F(S)]", good, str(hf))
    fh = table[(6, 5)]
    rep.add("[XF, Xh] = +X[h'(S)F(S)]",
            isinstance(fh, FunctionalConstant) and fh.coeff == 1, str(fh))
    return rep


def _same_span(gs1, gs2) -> bool:
    if not gs1 and not gs2:
        return True
    if not gs1 or not gs2:
        return False
    return all(membership(g, gs2) is not None for g in gs1) and \
        all(membership(g, gs1) is not None for g in gs2)


def criterion_2(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Derived series and center."""
    ctx = ctx or standard_context()
    rep = Report("criterion 2: derived series and center")
    L = reciprocal_algebra(ctx)
    x = standard_basis(ctx)
    Lp = L.derived_algebra()
    rep.add("L' labels", [g.label for g in Lp.basis] == ["X3", "X4", "X5",
                                                         "Xh"],
            str([g.label for g in Lp.basis]))
    rep.add("L' span equality (constant part)",
            _same_span([g for g in Lp.basis if g.func is None], x[2:5]))
    Lpp = Lp.derived_algebra()
    rep.add("L'' labels", [g.label for g in Lpp.basis] == ["X3", "X4", "X5"],
            str([g.label for g in Lpp.basis]))
    rep.add("L'' span equality", _same_span(Lpp.basis, x[2:5]))
    Z = L.center()
    rep.add("center contains X1, X2",
            membership(x[0], Z.basis) is not None and
            membership(x[1], Z.basis) is not None)
    rep.add("center dimension = 2", Z.dim() == 2, str(Z.dim()))
    commutes = True
    for g in Z.basis:
        for b in L.basis:
            if not commutator(g, b).is_zero():
                commutes = False
                rep.add("central element commutes", False,
                        "[%s, %s] != 0" % (g.label, b.label))
    rep.add("center re-verified by direct commutators", commutes)
    return rep


def criterion_3(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Automorphism constraint system and both solution families."""
    ctx = ctx or standard_context()
    rep = Report("criterion 3: automorphism constraints")
    cons = megaideal_constraints(ctx)
    got = {str(c.primitive()[1]) for c in cons}
    want = {str(parse(ctx, s).primitive()[1]) for s in APPENDIX_NINE}
    rep.add("nine equations (set equality up to sign/scale)", got == want,
            "%d generated" % len(cons))
    one, zero = Expr.const(ctx, 1), Expr.const(ctx, 0)
    a33, a54 = parse(ctx, "a33"), parse(ctx, "a54")
    fam1 = AutomorphismMatrix((
        (a33, zero, zero),
        (a54 * a33, one, zero),
        (a54 ** 2 * a33 * QQ(1, 2), a54, a33 ** (-1))))
    r1 = verify_automorphism_solution(fam1, cons)
    det1 = r1.extras["det"]
    rep.add("a35 = 0 family satisfied", r1.passed, "det = %s" % det1)
    rep.add("a35 = 0 family det nonzero", not det1.is_zero())
    a34, a35, a45 = (parse(ctx, n) for n in ("a34", "a35", "a45"))
    fam2 = AutomorphismMatrix((
        (a34 ** 2 / (2 * a35), a34, a35),
        (a34 * (a45 * a34 - 2 * a35) / (2 * a35 ** 2),
         a45 * a34 / a35 - 1, a45),
        ((a45 ** 2 * a34 ** 2 - 4 * a45 * a35 * a34 + 4 * a35 ** 2)
         / (4 * a35 ** 3),
         a45 * (a45 * a34 - 2 * a35) / (2 * a35 ** 2),
         a45 ** 2 / (2 * a35))))
    r2 = verify_automorphism_solution(fam2, cons)
    det2 = r2.extras["det"]
    rep.add("a35 != 0 family satisfied", r2.passed, "det = %s" % det2)
    rep.add("a35 != 0 family det nonzero", not det2.is_zero())
    return rep


def criterion_4(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Determining residuals vanish for the basis and both case families."""
    ctx = ctx or standard_context()
    rep = Report("criterion 4: determining equations")
    gens = standard_basis(ctx) + constant_slices(ctx)
    for g in gens:
        ds = determining_residuals(g)
        rep.add("%s (x-reduction)" % g.label, ds.is_zero())
    for g in standard_basis(ctx):
        rep.add("%s (y-reduction)" % g.label,
                determining_residuals(g, "y").is_zero())
    q12, q13 = parse(ctx, "q12"), parse(ctx, "q13")
    pb = ConservationFormParams.make(ctx, 1, 1, q12, q12, q13, -q13)
    gb = case_generators("b", pb, ctx, k=parse(ctx, "k"))
    rep.add("case-b family (symbolic q12, q13, k)",
            determining_residuals(gb).is_zero())
    pc = ConservationFormParams.make(ctx, 1, 1, q12, q12, 0, 0)
    gc = case_generators("c", pc, ctx, k1=parse(ctx, "k1"),
                         k2=parse(ctx, "k2"))
    rep.add("case-c family (symbolic q12, k1, k2)",
            determining_residuals(gc).is_zero())
    return rep


def criterion_5(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Polynomial-ansatz recovery of the full generator list."""
    ctx = ctx or standard_context()
    rep = Report("criterion 5: ansatz recovery (degree %d)" % ANSATZ_DEGREE)
    sol = solve_ansatz(ctx, ANSATZ_DEGREE)
    rep.add("every basis element re-verified", sol.reverified)
    targets = standard_basis(ctx) + constant_slices(ctx)
    pb = ConservationFormParams.make(ctx, 1, 1, Fraction(1, 3),
                                     Fraction(1, 3), Fraction(1, 2),
                                     Fraction(-1, 2))
    targets.append(case_generators("b", pb, ctx, k=1))
    pc = ConservationFormParams.make(ctx, 1, 1, Fraction(1, 4),
                                     Fraction(1, 4), 0, 0)
    targets.append(case_generators("c", pc, ctx, k1=2, k2=3))
    for g in targets:
        rep.add("%s in solution span" % (g.label or "case"),
                membership(g, sol.generators) is not None)
    rep.add("exact dimension = 7", sol.dimension == 7,
            "dimension %d from %d candidates" % (sol.dimension,
                                                 sol.candidates))
    return rep


def criterion_6(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Reciprocity of every explicit family; failure of the mu = -1 branch."""
    ctx = ctx or standard_context()
    rep = Report("criterion 6: reciprocity witnesses")
    q12, q13 = parse(ctx, "q12"), parse(ctx, "q13")
    k1, k2 = parse(ctx, "k1"), parse(ctx, "k2")
    cases = [
        ("bateman (symbolic b1..b4)", bateman(ctx)),
        ("one-parameter pressure family (symbolic eps)",
         one_param_bateman(ctx, entropy="formal").map_sym),
        ("rotation branch (symbolic lam, q12, q13)",
         one_param_q13(ctx, q12=q12, q13=q13, entropy="formal").map_sym),
        ("exponential branch (symbolic lam, k1, k2, q12)",
         one_param_exp(ctx, k1=k1, k2=k2, q12=q12,
                       entropy="formal").map_sym),
        ("linear branch (symbolic a, k2, q12)",
         one_param_linear(ctx, k2=k2, q12=q12, entropy="formal").map_sym),
        ("theorem family a11=+1 (symbolic)", theorem_map(ctx, a11=1)),
        ("theorem family a11=-1 (symbolic)", theorem_map(ctx, a11=-1)),
    ]
    for name, T in cases:
        r = verify_reciprocal(T, seed=seed)
        rep.add(name, r.passed)
    rm = verify_reciprocal(mu_minus(ctx, a33=1, a54=0, a11=1,
                                    alpha=1, beta=2), seed=seed)
    rep.add("mu = -1 branch fails", not rm.passed)
    rep.add("mu = -1 witness point produced", rm.witness is not None)
    if rm.witness:
        rep.extras["mu_minus_witness"] = rm.witness.get("__residual__", "")
    return rep


def criterion_7(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Flow consistency and group composition, decided exactly."""
    ctx = ctx or standard_context()
    rep = Report("criterion 7: Lie equations and composition")
    for fam in (one_param_bateman(ctx), one_param_q13(ctx, q12=0, q13=1),
                one_param_exp(ctx, k1=1, k2=1, q12=0),
                one_param_linear(ctx, k2=1, q12=0)):
        r = verify_flow(fam, seed)
        rep.add("Lie equation and additivity of %s (exact)" % fam.name,
                r.passed, (r.witness or {}).get("__residual__", ""))
    E1 = involution_E1_reciprocal(ctx)
    rep.add("E1 . E1 = identity (exact)", compose(E1, E1).is_identity())
    return rep


def criterion_8(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Pushforward matrix against the automorphism constraints."""
    ctx = ctx or standard_context()
    rep = Report("criterion 8: pushforward/automorphism link")
    x = standard_basis(ctx)
    T = bateman(ctx, entropy="identity")
    M = pushforward_matrix(T, x[2:5])
    r = verify_automorphism_solution(M, megaideal_constraints(ctx))
    det = r.extras["det"]
    rep.add("bateman matrix satisfies the nine constraints", r.passed)
    rep.add("bateman matrix nonsingular", not det.is_zero(), "det = %s" % det)
    Tt = theorem_map(ctx, alpha=1, beta=2, k=1, a11=1,
                     a34=Fraction(1, 2), a35=2, a45=3,
                     psi=1, entropy="identity")
    p1 = pushforward(Tt, x[0])
    rep.add("theorem map: T_* X1 = a11 X1' with a11 = 1", p1 == x[0])
    TE = compose(involution_E2_reciprocal(ctx), Tt)
    p1e = pushforward(TE, x[0])
    rep.add("with the y-involution: a11 = -1", p1e == x[0].scale(-1))
    return rep


def criterion_9(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Numeric transformation of exact solutions."""
    ctx = ctx or standard_context()
    rep = Report("criterion 9: numeric transform")
    T = bateman_simplified(ctx, 1, 0, entropy="identity")
    grid = GridSpec(0.0, 0.0, 0.05, 0.05, 21, 21)
    sol = make_solution(ConstantFlow(u0=1, v0=0, rho0=1, p0=1), grid)
    out = transform_solution(sol, T, margin_cells=0)
    # Python floats, so the detail string does not depend on numpy's repr
    vals = {"u": float(out.u[5, 7]), "v": float(out.v[5, 7]),
            "p": float(out.p[5, 7]), "rho": float(out.rho[5, 7])}
    expect = {"u": 1.0, "v": 0.0, "p": -1.0, "rho": 0.5}
    ok = all(abs(vals[k] - expect[k]) < 1e-12 for k in vals)
    rep.add("constant flow: (u', v', p', rho') = (1, 0, -1, 0.5)", ok,
            str(vals))
    import numpy as np
    xp, yp = primed_coordinates(sol, T)
    xs = sol.grid.xs()
    ys = sol.grid.ys()
    cerr = max(float(np.max(np.abs(xp - xs[:, None]))),
               float(np.max(np.abs(yp - 2 * ys[None, :]))))
    rep.add("constant flow: x' = x and y' = 2y to 1e-12", cerr < 1e-12,
            "%.2e" % cerr)

    Tb = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    shear = ShearFlow.example()
    ratios = transform_convergence_ratios(shear, Tb,
                                          GridSpec(0, 0, 1 / 12, 1 / 12,
                                                   13, 13))
    degenerate = all(v is None for v in ratios.values())
    in_band = all(v is None or 3.5 <= v <= 4.5 for v in ratios.values())
    rep.add("shear residual ratios in [3.5, 4.5] or at rounding floor",
            in_band, str(ratios) +
            (" (transformed shear is FD-exact; ratio degenerate)"
             if degenerate else ""))
    s1 = make_solution(shear, GridSpec(0, 0, 1 / 16, 1 / 16, 17, 17))
    r1 = fd_residuals(transform_solution(s1, Tb))
    rep.add("transformed shear residuals at rounding floor",
            max(r1.values()) < 1e-12, str({k: "%.1e" % v
                                           for k, v in r1.items()}))
    vratios = transform_convergence_ratios(
        VortexFlow(w0=1, m=1), Tb, GridSpec(0.5, 0.3, 1 / 24, 1 / 24,
                                            13, 13))
    rep.add("vortex residual ratios in [3.5, 4.5] (second order)",
            all(v is not None and 3.5 <= v <= 4.5 for v in
                vratios.values()),
            str({k: round(v, 2) for k, v in vratios.items()}))
    lc = loop_closedness(s1, Tb, s1.grid.boundary_loop())
    # the label spells LOOP_TOL as 1e-8; "%g" would render it 1e-08
    rep.add("loop closedness < 1e-8", lc < LOOP_TOL, "%.2e" % lc)
    return rep


def criterion_10(ctx=None, seed=DEFAULT_SEED) -> Report:
    """Two-step method form coefficients."""
    ctx = ctx or standard_context()
    rep = Report("criterion 10: invariance-derived form coefficients")
    params = ConservationFormParams.symbolic(ctx)
    for n in ("zzr", "zzu", "zzv", "zzp"):
        ctx.ensure(n)
    zr, zu, zv, zp = (parse(ctx, n) for n in ("zzr", "zzu", "zzv", "zzp"))
    zdx, zdy = form_coeffs_from_invariance(ctx, params, zr, zu, zv, zp)
    delta = parse(ctx, "p^2+(q12+q22)*p+p*rho*(u^2+v^2)+q12*q22-q13*q23"
                       "+rho*(q12*u^2+q22*v^2)-(q13+q23)*rho*u*v")
    disp = {
        "zdx.cx": parse(ctx, "zzu*rho*v*(q13+rho*u*v)"
                             "+zzv*rho*(-2*p*v+q13*u-2*q22*v-rho*u^2*v)"
                             "+zzr*v*(-p*v+q13*u-q22*v)"
                             "-zzp*(p+q22+rho*u^2)") / delta,
        "zdx.cy": parse(ctx, "zzu*rho*(p*v-2*q13*u+q22*v-rho*u^2*v)"
                             "+zzv*rho*u*(p+q22+rho*u^2)"
                             "+zzr*u*(p*v-q13*u+q22*v)"
                             "-zzp*(q13+rho*u*v)") / delta,
        "zdy.cx": parse(ctx, "zzu*rho*v*(p+q12+rho*v^2)"
                             "+zzv*rho*(p*u+q12*u-2*q23*v-rho*u*v^2)"
                             "+zzr*v*(p*u+q12*u-q23*v)"
                             "-zzp*(q23+rho*u*v)") / delta,
        "zdy.cy": parse(ctx, "zzu*rho*(-2*p*u-2*q12*u+q23*v-rho*u*v^2)"
                             "+zzv*rho*u*(q23+rho*u*v)"
                             "+zzr*u*(-p*u-q12*u+q23*v)"
                             "-zzp*(p+q12+rho*v^2)") / delta,
    }
    got = {"zdx.cx": zdx.cx, "zdx.cy": zdx.cy,
           "zdy.cx": zdy.cx, "zdy.cy": zdy.cy}
    for k in disp:
        rep.add("displayed %s reproduced (denominator Delta)" % k,
                (got[k] - disp[k]).is_zero())
    p0 = ConservationFormParams.make(ctx, 1, 1, 0, 0, 0, 0)
    x3f = standard_basis(ctx)[2].scale(2)
    zdx0, zdy0 = form_coeffs_from_invariance(ctx, p0, x3f.zr, x3f.zu,
                                             x3f.zv, x3f.zp)
    ok = (zdx0.cx == x3f.m11 and zdx0.cy == x3f.m12
          and zdy0.cx == x3f.m21 and zdy0.cy == x3f.m22)
    rep.add("q = 0: flow-generator fields reproduce its form matrix", ok)
    return rep


ALL_CRITERIA = (
    ("1", criterion_1), ("2", criterion_2), ("3", criterion_3),
    ("4", criterion_4), ("5", criterion_5), ("6", criterion_6),
    ("7", criterion_7), ("8", criterion_8), ("9", criterion_9),
    ("10", criterion_10),
)


def run_paper_suite(seed=DEFAULT_SEED):
    """Run every criterion on a fresh context; returns list of Reports."""
    out = []
    for _, fn in ALL_CRITERIA:
        out.append(fn(ctx=None, seed=seed))
    return out
