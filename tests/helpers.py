"""Reference helpers shared by the tests; the package does not use them."""

from fractions import Fraction

from recipgas.gasdyn import JETS, main_derivatives
from recipgas.liealg import FunctionalConstant, _vectorize
from recipgas.symkernel import Expr
from recipgas.symkernel.linalg import reduce_row, rref
from recipgas.symkernel.poly import ppow, pvar


def mono_pack(pairs) -> int:
    """The packed monomial of the (variable index, exponent) pairs: the
    product of the powers of pvar, whose packed monomials add."""
    return sum(next(iter(ppow(pvar(i), e))) for i, e in pairs)


def monomial(ctx, key) -> Expr:
    """The monomial Expr of an Expr.collect() key, a tuple of
    (name, exponent) pairs."""
    e = Expr.const(ctx, 1)
    for name, exp in key:
        e = e * Expr.var(ctx, name) ** exp
    return e


def derived_basis_by_vectors(L) -> list:
    """The basis LieAlgebra.derived_algebra picks for L, picked instead in
    the vector space of the generators' coefficients: the brackets of L's
    table as generators; the basis elements inside their span, then the
    raw brackets "[]", each kept when it is independent of those kept
    before it (one rref per pick); then the families that a
    FunctionalConstant names."""
    brackets, families_hit = [], set()
    for (i, j), entry in L.structure_constants().items():
        if i > j:
            continue
        if isinstance(entry, FunctionalConstant):
            families_hit.add(entry.family)
        elif entry:
            brackets.append(L._combine(entry).with_label("[]"))
    span = rref([_vectorize(br) for br in brackets])
    candidates = [g for k, g in enumerate(L.basis) if k not in families_hit
                  and not reduce_row(span, _vectorize(g))] + brackets
    chosen, picked = [], {}
    for g in candidates:
        if reduce_row(picked, _vectorize(g)):
            chosen.append(g)
            picked = rref([_vectorize(c) for c in chosen])
    return chosen + [L.basis[k] for k in sorted(families_hit)]


def parametric_jets(ctx, solve_for="x"):
    """The jets main_derivatives(ctx, solve_for) leaves free, in JETS
    order."""
    eliminated = main_derivatives(ctx, solve_for)
    return tuple(j for j in JETS if j not in eliminated)


def split(ds):
    """Complete jet-monomial coefficient list [(tag, mono_key, Expr)] of a
    prolong.DeterminingSystem.

    The system vanishes iff every coefficient vanishes; the reconstruction
    identity sum(coeff * mono) = residual holds per residual.
    """
    jets = parametric_jets(ds.generator.ctx, ds.solve_for)
    return [(tag, key, coeff) for tag, r in ds.residuals if not r.is_zero()
            for key, coeff in r.collect(jets).items()]


def assert_witness_holds(report: dict, residuals: dict):
    """The witness of a failing report (a Report's JSON dict) names one of
    its failing checks, and that check's residual in `residuals`
    {name: Expr} takes the witness's value at the witness point."""
    point = {k: Fraction(v) for k, v in report["witness"].items()
             if k != "__residual__"}
    name, value = report["witness"]["__residual__"].split(" = ")
    assert name in {c["name"] for c in report["checks"] if not c["passed"]}
    assert residuals[name].eval_rational(point) == Fraction(value)
