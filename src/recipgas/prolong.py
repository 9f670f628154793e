"""Prolongation of reciprocal generators, determining equations,
form-coefficient derivation from invariance of the conserved forms, and a
polynomial-ansatz nullspace solver.

The prolongation of a generator with form matrix m sends each field f to

    zeta_fx = D_x zeta_f - f_x*m11 - f_y*m21
    zeta_fy = D_y zeta_f - f_x*m12 - f_y*m22

A generator belongs to the reciprocal group iff the four prolonged system
residuals and the two closedness residuals of its form slots vanish after
reduction to the solution manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import add, mul

from .gasdyn import (CLOSEDNESS_NAMES, FIELDS, RESIDUAL_NAMES,
                     ConservationFormParams, InvalidParams, OneForm,
                     closedness_residuals, flux_matrix, reduce_on_manifold,
                     system_residuals, total_derivative)
from .liealg import Generator, SingularMatrix, generator, standard_basis
from .symkernel import QQ, Context, Expr
from .symkernel.linalg import det2, nullspace, transpose


def prolong(X: Generator) -> dict:
    """Prolonged coefficients {(field, coord): Expr} for all ten jets of a
    generator, from its form matrix; for a point generator
    (equivalence_generator) that matrix is the classical prolongation's."""
    ctx = X.ctx
    (m11, m12), (m21, m22) = X.matrix()
    out = {}
    for f, z in zip(FIELDS, X.field_slots()):
        fx = Expr.var(ctx, f + "_x")
        fy = Expr.var(ctx, f + "_y")
        out[(f, "x")] = total_derivative(z, "x") - fx * m11 - fy * m21
        out[(f, "y")] = total_derivative(z, "y") - fx * m12 - fy * m22
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


def _system_residuals(X) -> list:
    """The four system residuals F1..F4 under the prolonged generator, not
    yet reduced to the solution manifold."""
    coeffs = dict(zip(FIELDS, X.field_slots()))
    coeffs.update(("%s_%s" % fc, z) for fc, z in prolong(X).items())
    return [F.derive(coeffs) for F in system_residuals(X.ctx)]


def determining_residuals(X: Generator, solve_for: str = "x") -> DeterminingSystem:
    """The six residuals, F1..F4 under the prolonged generator and the
    closedness of its form slots, reduced to the solution manifold in one
    reduce_on_manifold call; X generates a one-parameter group of
    reciprocal transformations iff all six normalize to zero."""
    res = reduce_on_manifold(
        _system_residuals(X) + closedness_residuals(X.matrix()), solve_for)
    return DeterminingSystem(
        X, list(zip(RESIDUAL_NAMES + CLOSEDNESS_NAMES, res)), solve_for)


def equivalence_residuals(Xe: Generator) -> DeterminingSystem:
    """Point-symmetry determining residuals of a point generator, whose
    form matrix gives the classical prolongation
    zeta_fx = D_x zeta_f - f_x D_x xi_x - f_y D_x xi_y."""
    return DeterminingSystem(Xe, list(zip(
        RESIDUAL_NAMES, reduce_on_manifold(_system_residuals(Xe), "x"))))


# --- first-method form coefficients -----------------------------------------


def _flux_matrix(params: ConservationFormParams):
    """The entries A1, B1, A2, B2 of gasdyn.flux_matrix and its
    determinant Delta, which must not vanish."""
    (A1, B1), (A2, B2) = phi = flux_matrix(params)
    delta = det2(phi)
    if delta.is_zero():
        raise SingularMatrix("flux coefficient matrix is singular")
    return A1, B1, A2, B2, delta


def form_coeffs_from_invariance(ctx: Context, params: ConservationFormParams,
                                zr: Expr, zu: Expr, zv: Expr, zp: Expr):
    """Unique 1-form slots making both conserved flux forms invariant.

    Solves X(S1) = 0, X(S2) = 0 for the four form coefficients; the shared
    denominator is Delta = det of the flux coefficient matrix.  Returns
    (zeta_dx, zeta_dy) as OneForms.
    """
    A1, B1, A2, B2, delta = _flux_matrix(params)
    probe = generator(ctx, zr=zr, zu=zu, zv=zv, zp=zp)
    XA1, XB1 = probe.apply(A1), probe.apply(B1)
    XA2, XB2 = probe.apply(A2), probe.apply(B2)

    x_dx = (-XA1 * B2 + XA2 * B1) / delta
    x_dy = (-A1 * XA2 + A2 * XA1) / delta
    y_dx = (-XB1 * B2 + XB2 * B1) / delta
    y_dy = (-A1 * XB2 + A2 * XB1) / delta
    return OneForm(x_dx, y_dx), OneForm(x_dy, y_dy)


def first_method_generator(ctx: Context, params: ConservationFormParams,
                           zr=0, zu=0, zv=0, zp=0, zs=0) -> Generator:
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
    k, k1, k2 = (Expr.coerce(ctx, c) for c in (k, k1, k2))
    x1, x2, x3, x4, x5 = standard_basis(ctx)
    x3f = x3.scale(2)
    q12 = params.q12
    if branch == "b":
        if not (params.q22 - params.q12).is_zero():
            raise InvalidParams("branch b needs q22 = q12")
        if not (params.q23 + params.q13).is_zero():
            raise InvalidParams("branch b needs q23 = -q13")
        q13 = params.q13
        g = (x3f + x4.scale(2 * q12) + x1.scale(q13)
             + x5.scale(q12 ** 2 + q13 ** 2)).scale(k)
        return g.with_label("case-b")
    if branch == "c":
        if not params.q13.is_zero() or not params.q23.is_zero():
            raise InvalidParams("branch c needs q13 = q23 = 0")
        if not (params.q22 - params.q12).is_zero():
            raise InvalidParams("branch c needs q22 = q12")
        g = (x3f + x4.scale(2 * q12) + x5.scale(q12 ** 2)).scale(k2) + \
            (x4.scale(2) + x5.scale(2 * q12) - x2).scale(k1)
        return g.with_label("case-c")
    raise ValueError("branch must be 'b' or 'c'")


# --- polynomial ansatz -------------------------------------------------------

ANSATZ_VARS = ("rho", "u", "v", "p")
# the formal slot function of the candidate-vector builder; "$" is no
# identifier character, so no parsed expression can name it
FORMAL_SLOT = "$Z"


def _monomials(ctx, max_degree):
    """All monomials in (rho,u,v,p) with total degree <= max_degree."""
    if max_degree < 0:
        raise InvalidParams("ansatz degree must be at least 0, got %d"
                            % max_degree)
    return [reduce(mul, (Expr.var(ctx, n) ** e
                         for n, e in zip(ANSATZ_VARS, exps)))
            for exps in product(range(max_degree + 1), repeat=4)
            if sum(exps) <= max_degree]


def _jet(e: Expr) -> list:
    """e and its four first partials in (rho, u, v, p)."""
    return [e] + [e.diff(n) for n in ANSATZ_VARS]


@dataclass
class AnsatzSolution:
    dimension: int
    generators: list
    candidates: int
    reverified: bool


def _candidate_vectors(slots, monos, make, clear):
    """Cleared residual vectors {(residual index, mono): QQ} of the
    candidates make(slot, m), slot-major, m in monos.

    The determining residuals are linear in the generator, so one run per
    slot with the formal function Z(rho,u,v,p) there gives each residual,
    times clear, as polynomial coefficients of Z and of its four first
    partials; a candidate's vector is that combination at Z = m.
    """
    z = Expr.function(clear.ctx, FORMAL_SLOT,
                      *(Expr.var(clear.ctx, n) for n in ANSATZ_VARS))
    names = [str(a) for a in _jet(z)]
    partials = [_jet(m) for m in monos]
    vectors = []
    for s in slots:
        terms = []
        ds = determining_residuals(make(s, z))
        for ti, (tag, r) in enumerate(ds.residuals):
            rc = r * clear
            if not rc.is_polynomial():
                raise RuntimeError("denominator not cleared for %s" % tag)
            for key, c in rc.collect(names).items():
                if len(key) != 1 or key[0][1] != 1:
                    raise RuntimeError("%s is not linear in the slot" % tag)
                terms.append((ti, names.index(key[0][0]), c))
        for ps in partials:
            polys = {}
            for ti, k, c in terms:
                polys[ti] = polys.get(ti, 0) + c * ps[k]
            vectors.append({(ti, mono): c for ti, p in polys.items()
                            for mono, c in p.coefficients().items()})
    return vectors


def _solve_ansatz(slots, monos, make, clear) -> AnsatzSolution:
    """Nullspace of the determining system over the candidates
    make(slot, m); every basis element is re-verified through the full
    determining_residuals, so the linear solve is never trusted alone:
    reverified says whether all of them vanish."""
    candidates = [(s, m) for s in slots for m in monos]
    vectors = _candidate_vectors(slots, monos, make, clear)
    gens = []
    for bv in nullspace(list(transpose(vectors).values()), len(candidates),
                        one=QQ(1)):
        vals = {}
        for (s, m), c in zip(candidates, bv):
            if c:
                vals[s] = vals.get(s, 0) + m * c
        gens.append(reduce(add, (make(s, v) for s, v in vals.items())))
    return AnsatzSolution(
        len(gens), gens, len(candidates),
        all(determining_residuals(g).is_zero() for g in gens))


def _one_slot(slot: int, value: Expr) -> Generator:
    """The generator with value in slot number `slot` and zero elsewhere."""
    vals = [Expr.const(value.ctx, 0)] * 9
    vals[slot] = value
    return Generator(*vals)


def solve_ansatz(ctx: Context, max_degree: int = 4) -> AnsatzSolution:
    """Nullspace of the determining system over generators whose nine slots
    are polynomials in (rho, u, v, p) of total degree <= max_degree."""
    return _solve_ansatz(range(9), _monomials(ctx, max_degree), _one_slot,
                         Expr.var(ctx, "u") ** 4)


def solve_ansatz_first_method(ctx: Context, params: ConservationFormParams,
                              max_degree: int = 2) -> AnsatzSolution:
    """Two-step-method ansatz in the zp = 0 case: polynomial field slots
    zr, zu, zv, zs, form slots derived from invariance of the conserved
    forms.  Its solutions should be spanned by the two equivalence
    families at constant function slices."""
    delta = _flux_matrix(params)[4]
    return _solve_ansatz(
        ["zr", "zu", "zv", "zs"], _monomials(ctx, max_degree),
        lambda s, value: first_method_generator(ctx, params, **{s: value}),
        Expr.var(ctx, "u") ** 4 * delta ** 2)
