"""Prolongation of reciprocal generators, determining equations, jet
splitting, form-coefficient derivation from invariance of the conserved
forms, and a polynomial-ansatz nullspace solver.

The prolongation of a generator with form matrix m sends each field f to

    zeta_fx = D_x zeta_f - f_x*m11 - f_y*m21
    zeta_fy = D_y zeta_f - f_x*m12 - f_y*m22

A generator belongs to the reciprocal group iff the four prolonged system
residuals and the two closedness residuals of its form slots vanish after
reduction to the solution manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gasdyn import (FIELDS, ConservationFormParams, OneForm,
                     ParamConstraintViolated, parametric_jets,
                     reduce_on_manifold, system_residuals, total_derivative)
from .liealg import EquivalenceGenerator, Generator, generator, standard_basis
from .symkernel import Context, Expr
from .symkernel.errors import SymkernelError
from .symkernel.linalg import nullspace, transpose
from .symkernel.poly import QQ, pvars

RESIDUAL_TAGS = ("mass", "momentum-x", "momentum-y", "entropy",
                 "closedness-dx", "closedness-dy")


class NotPolynomialInJets(SymkernelError):
    pass


class DegenerateDelta(SymkernelError):
    pass


def prolong(X: Generator) -> dict:
    """Prolonged coefficients {(field, coord): Expr} for all ten jets."""
    ctx = X.ctx
    out = {}
    for f, z in zip(FIELDS, X.field_slots()):
        fx = Expr.var(ctx, f + "_x")
        fy = Expr.var(ctx, f + "_y")
        out[(f, "x")] = total_derivative(z, "x") - fx * X.m11 - fy * X.m21
        out[(f, "y")] = total_derivative(z, "y") - fx * X.m12 - fy * X.m22
    return out


@dataclass
class DeterminingSystem:
    generator: object
    residuals: list          # [(tag, Expr reduced residual)]
    solve_for: str = "x"

    def is_zero(self) -> bool:
        return all(r.is_zero() for _, r in self.residuals)

    def nonzero(self):
        return [(t, r) for t, r in self.residuals if not r.is_zero()]

    def report_text(self) -> str:
        lines = []
        for tag, r in self.residuals:
            verdict = "ZERO" if r.is_zero() else "NONZERO"
            lines.append("%-14s %-8s %s" % (tag, verdict, r))
        lines.append("verdict: %s" % ("PASS" if self.is_zero() else "FAIL"))
        return "\n".join(lines)


def _apply_to_residual(ctx, F: Expr, field_slots, pro) -> Expr:
    out = Expr.const(ctx, 0)
    for f, z in zip(FIELDS, field_slots):
        if not z.is_zero():
            d = F.diff(f)
            if not d.is_zero():
                out = out + z * d
    for f in FIELDS:
        for c in ("x", "y"):
            d = F.diff("%s_%s" % (f, c))
            if not d.is_zero():
                zj = pro[(f, c)]
                if not zj.is_zero():
                    out = out + zj * d
    return out


def determining_residuals(X: Generator, solve_for: str = "x") -> DeterminingSystem:
    """The six reduced residuals; X generates a one-parameter group of
    reciprocal transformations iff all six normalize to zero."""
    ctx = X.ctx
    pro = prolong(X)
    res = []
    for tag, F in zip(RESIDUAL_TAGS[:4], system_residuals(ctx)):
        r = _apply_to_residual(ctx, F, X.field_slots(), pro)
        res.append((tag, reduce_on_manifold(r, solve_for)))
    c_dx = total_derivative(X.m12, "x") - total_derivative(X.m11, "y")
    c_dy = total_derivative(X.m22, "x") - total_derivative(X.m21, "y")
    res.append((RESIDUAL_TAGS[4], reduce_on_manifold(c_dx, solve_for)))
    res.append((RESIDUAL_TAGS[5], reduce_on_manifold(c_dy, solve_for)))
    return DeterminingSystem(X, res, solve_for)


def equivalence_residuals(Xe: EquivalenceGenerator,
                          solve_for: str = "x") -> DeterminingSystem:
    """Point-symmetry determining residuals with classical prolongation
    zeta_fx = D_x zeta_f - f_x D_x xi_x - f_y D_x xi_y."""
    ctx = Xe.ctx
    dxx = {c: total_derivative(Xe.xi_x, c) for c in ("x", "y")}
    dxy = {c: total_derivative(Xe.xi_y, c) for c in ("x", "y")}
    pro = {}
    for f, z in zip(FIELDS, Xe.field_slots()):
        fx = Expr.var(ctx, f + "_x")
        fy = Expr.var(ctx, f + "_y")
        pro[(f, "x")] = total_derivative(z, "x") - fx * dxx["x"] - fy * dxy["x"]
        pro[(f, "y")] = total_derivative(z, "y") - fx * dxx["y"] - fy * dxy["y"]
    res = []
    for tag, F in zip(RESIDUAL_TAGS[:4], system_residuals(ctx)):
        r = _apply_to_residual(ctx, F, Xe.field_slots(), pro)
        res.append((tag, reduce_on_manifold(r, solve_for)))
    return DeterminingSystem(Xe, res, solve_for)


def split(ds: DeterminingSystem):
    """Complete jet-monomial coefficient list [(tag, mono_key, Expr)].

    The system vanishes iff every coefficient vanishes; the reconstruction
    identity sum(coeff * mono) = residual holds per residual.
    """
    jets = parametric_jets(ds.solve_for)
    out = []
    for tag, r in ds.residuals:
        if r.is_zero():
            continue
        if any(pvars(r.den) & {r.ctx.idx(j)} for j in jets):
            raise NotPolynomialInJets(tag)
        for key, coeff in r.collect(jets).items():
            out.append((tag, key, coeff))
    return out


# --- first-method form coefficients -----------------------------------------


def form_coeffs_from_invariance(ctx: Context, params: ConservationFormParams,
                                zr: Expr, zu: Expr, zv: Expr, zp: Expr):
    """Unique 1-form slots making both conserved flux forms invariant.

    Solves X(S1) = 0, X(S2) = 0 for the four form coefficients; the shared
    denominator is Delta = det of the flux coefficient matrix.  Returns
    (zeta_dx, zeta_dy) as OneForms.
    """
    v = lambda n: Expr.var(ctx, n)
    rho, u, vv, p = v("rho"), v("u"), v("v"), v("p")
    A1 = p + params.q12 + rho * vv ** 2
    B1 = -(rho * u * vv + params.q13)
    A2 = -(rho * u * vv + params.q23)
    B2 = p + params.q22 + rho * u ** 2
    delta = A1 * B2 - B1 * A2
    if delta.is_zero():
        raise DegenerateDelta("flux coefficient matrix is singular")

    zero = Expr.const(ctx, 0)
    probe = generator(ctx, zr=zr, zu=zu, zv=zv, zp=zp)
    XA1, XB1 = probe.apply(A1), probe.apply(B1)
    XA2, XB2 = probe.apply(A2), probe.apply(B2)

    x_dx = (-XA1 * B2 + XA2 * B1) / delta
    x_dy = (-A1 * XA2 + A2 * XA1) / delta
    y_dx = (-XB1 * B2 + XB2 * B1) / delta
    y_dy = (-A1 * XB2 + A2 * XB1) / delta
    return OneForm(x_dx, y_dx), OneForm(x_dy, y_dy)


def first_method_generator(ctx: Context, params: ConservationFormParams,
                           zr, zu, zv, zp, zs=0) -> Generator:
    zdx, zdy = form_coeffs_from_invariance(ctx, params, zr, zu, zv, zp)
    return generator(ctx, zr=zr, zu=zu, zv=zv, zp=zp, zs=zs,
                     m=((zdx.cx, zdx.cy), (zdy.cx, zdy.cy)))


# --- the two solution branches of the first method ---------------------------


def case_generators(branch: str, params: ConservationFormParams,
                    ctx: Context, k=1, k1=0, k2=1) -> Generator:
    """The closed-form generator families of the two-step method.

    branch "b" (zp*q13 != 0): requires q22 = q12 and q23 = -q13; returns
        k*(2*X3 + 2*q12*X4 + q13*X1 + (q12^2 + q13^2)*X5).
    branch "c" (zp != 0, q13 = 0): requires q13 = q23 = 0 and q22 = q12;
        returns k2*(2*X3 + 2*q12*X4 + q12^2*X5) + k1*(2*X4 + 2*q12*X5 - X2).
    """
    conv = lambda x: x if isinstance(x, Expr) else Expr.const(ctx, x)
    x1, x2, x3, x4, x5 = standard_basis(ctx)
    x3f = x3.scale(2)
    q12 = params.q12
    if branch == "b":
        if not (params.q22 - params.q12).is_zero():
            raise ParamConstraintViolated("branch b needs q22 = q12")
        if not (params.q23 + params.q13).is_zero():
            raise ParamConstraintViolated("branch b needs q23 = -q13")
        q13 = params.q13
        g = (x3f + x4.scale(2 * q12) + x1.scale(q13)
             + x5.scale(q12 ** 2 + q13 ** 2)).scale(conv(k))
        return g.with_label("case-b")
    if branch == "c":
        if not params.q13.is_zero() or not params.q23.is_zero():
            raise ParamConstraintViolated("branch c needs q13 = q23 = 0")
        if not (params.q22 - params.q12).is_zero():
            raise ParamConstraintViolated("branch c needs q22 = q12")
        g = (x3f + x4.scale(2 * q12) + x5.scale(q12 ** 2)).scale(conv(k2)) + \
            (x4.scale(2) + x5.scale(2 * q12) - x2).scale(conv(k1))
        return g.with_label("case-c")
    raise ValueError("branch must be 'b' or 'c'")


# --- polynomial ansatz -------------------------------------------------------

ANSATZ_VARS = ("rho", "u", "v", "p")


def _monomials(ctx, max_degree):
    """All monomials in (rho,u,v,p) with total degree <= max_degree."""
    out = []
    rng = range(max_degree + 1)
    for er in rng:
        for eu in rng:
            for ev in rng:
                for ep in rng:
                    if er + eu + ev + ep <= max_degree:
                        m = Expr.const(ctx, 1)
                        for n, e in zip(ANSATZ_VARS, (er, eu, ev, ep)):
                            if e:
                                m = m * Expr.var(ctx, n) ** e
                        out.append(m)
    return out


@dataclass
class AnsatzSolution:
    dimension: int
    generators: list
    candidates: int
    reverified: bool


def _clear_jets_vector(ds: DeterminingSystem, clear: Expr):
    """Residuals * clear must be polynomial; returns {(tag_i,mono): QQ}."""
    vec = {}
    for ti, (tag, r) in enumerate(ds.residuals):
        if r.is_zero():
            continue
        rc = r * clear
        if not rc.is_polynomial():
            raise SymkernelError("denominator not cleared for %s" % tag)
        scale = rc.den[next(iter(rc.den))]
        for mono, c in rc.num.items():
            vec[(ti, mono)] = c / scale
    return vec


def _nullspace_generators(ctx, candidates, vectors, build, reverify):
    basis_vecs = nullspace(list(transpose(vectors).values()), len(candidates),
                           one=QQ(1))
    gens = []
    for bv in basis_vecs:
        g = build(bv)
        gens.append(g)
    ok = True
    for g in gens:
        if not reverify(g):
            ok = False
    return gens, ok


def solve_ansatz(ctx: Context, max_degree: int = 4) -> AnsatzSolution:
    """Nullspace of the determining system over generators whose nine slots
    are polynomials in (rho, u, v, p) of total degree <= max_degree.

    Every returned basis element is independently re-verified through
    determining_residuals; the linear solve is never trusted on its own.
    """
    monos = _monomials(ctx, max_degree)
    u4 = Expr.var(ctx, "u") ** 4
    slots = list(range(9))
    candidates = []
    vectors = []
    zero = Expr.const(ctx, 0)
    for s in slots:
        for m in monos:
            vals = [zero] * 9
            vals[s] = m
            g = Generator(*vals)
            candidates.append((s, m))
            vectors.append(_clear_jets_vector(determining_residuals(g), u4))

    def build(coeffs):
        vals = [zero] * 9
        for (s, m), c in zip(candidates, coeffs):
            if c:
                vals[s] = vals[s] + m * c
        return Generator(*vals)

    gens, ok = _nullspace_generators(
        ctx, candidates, vectors, build,
        lambda g: determining_residuals(g).is_zero())
    if not ok:
        raise SymkernelError("ansatz solution failed re-verification")
    return AnsatzSolution(len(gens), gens, len(candidates), ok)


def solve_ansatz_first_method(ctx: Context, params: ConservationFormParams,
                              max_degree: int = 2,
                              include_zp: bool = False) -> AnsatzSolution:
    """Two-step-method ansatz: polynomial field slots, form slots derived
    from invariance of the conserved forms.  With include_zp=False this is
    the zp = 0 case, whose solutions should be spanned by the two
    equivalence families at constant function slices."""
    monos = _monomials(ctx, max_degree)
    v = lambda n: Expr.var(ctx, n)
    rho, u, vv, p = v("rho"), v("u"), v("v"), v("p")
    A1 = p + params.q12 + rho * vv ** 2
    B2 = p + params.q22 + rho * u ** 2
    B1 = -(rho * u * vv + params.q13)
    A2 = -(rho * u * vv + params.q23)
    delta = A1 * B2 - B1 * A2
    if delta.is_zero():
        raise DegenerateDelta("flux coefficient matrix is singular")
    clear = Expr.var(ctx, "u") ** 4 * delta ** 2

    field_slots = ["zr", "zu", "zv", "zs"] + (["zp"] if include_zp else [])
    zero = Expr.const(ctx, 0)
    candidates = []
    vectors = []
    for s in field_slots:
        for m in monos:
            kw = {"zr": zero, "zu": zero, "zv": zero, "zp": zero, "zs": zero}
            kw[s] = m
            g = first_method_generator(ctx, params, kw["zr"], kw["zu"],
                                       kw["zv"], kw["zp"], kw["zs"])
            candidates.append((s, m))
            vectors.append(_clear_jets_vector(determining_residuals(g), clear))

    def build(coeffs):
        kw = {"zr": zero, "zu": zero, "zv": zero, "zp": zero, "zs": zero}
        for (s, m), c in zip(candidates, coeffs):
            if c:
                kw[s] = kw[s] + m * c
        return first_method_generator(ctx, params, kw["zr"], kw["zu"],
                                      kw["zv"], kw["zp"], kw["zs"])

    gens, ok = _nullspace_generators(
        ctx, candidates, vectors, build,
        lambda g: determining_residuals(g).is_zero())
    if not ok:
        raise SymkernelError("first-method ansatz failed re-verification")
    return AnsatzSolution(len(gens), gens, len(candidates), ok)
