"""Action of a reciprocal map on generators, and exact decomposition over a
generator basis.

The pushforward applies the generator to each map component and re-expresses
the result in primed variables through the map's inverse; the form part
transforms as

    M' = (X(f) + f * M_X) * f^{-1},

with all coefficient functions rewritten in primed symbols.
"""

from __future__ import annotations

from ..liealg import AutomorphismMatrix, Generator, NotInSpan
from ..symkernel import Expr, substitute_all
from ..symkernel.errors import SymkernelError
from ..symkernel.linalg import adj2, mul2, rref, transpose
from .maps import NotInvertible, ReciprocalMap, solve_inverse


def _pushforwards(T: ReciprocalMap, gens) -> list:
    """T_* X for each X of gens: the inverse, det and adjugate once, and
    the nine slots of every image in one substitution."""
    inv = solve_inverse(T)
    det = T.det_f()
    if det.is_zero():
        raise NotInvertible("form matrix of %s is singular" % T.name)
    adj = adj2(T.f)
    slots = []
    for X in gens:
        slots += [X.apply(comp) for comp in (T.R, T.U, T.V, T.P, T.H)]
        num = tuple(tuple(X.apply(e) + fm for e, fm in zip(row, fmrow))
                    for row, fmrow in zip(T.f, mul2(T.f, X.matrix())))
        slots += [e / det for row in mul2(num, adj) for e in row]
    slots = substitute_all(slots, inv)
    return [Generator(*slots[9 * i:9 * i + 9],
                      label="%s_*(%s)" % (T.name, X.label))
            for i, X in enumerate(gens)]


def pushforward(T: ReciprocalMap, X: Generator) -> Generator:
    """T_* X, expressed in primed variables (same symbol names) through
    the inverse of solve_inverse."""
    return _pushforwards(T, [X])[0]


def _collectable_names(ctx, exprs):
    """The free names of exprs that are not parameters."""
    return sorted({n for e in exprs for n in e.free_variables()
                   if ctx.role(n) != "parameter"})


def _decompositions(images, basis) -> list:
    """Exact coefficients of each image over the basis, one list per image:
    every slot collected once, and one rref of the basis columns with one
    right-hand column per image.  Coefficients live in the field of
    expressions in the remaining parameters.

    Raises NotInSpan with an image whose slots do not collect (the first
    image when a basis slot does not), else with the first image outside
    the span: the first whose column holds a pivot, since every image
    before it lies in the span.
    """
    basis, images = list(basis), list(images)
    ctx, n = images[0].ctx, len(basis)
    slots_all = [list(g.slots()) for g in basis + images]
    names = _collectable_names(ctx, [s for gs in slots_all for s in gs])
    rows = []
    for snum in range(9):
        maps = []
        for col, gs in enumerate(slots_all):
            try:
                maps.append(gs[snum].collect(names))
            except SymkernelError:
                raise NotInSpan(images[max(col - n, 0)])
        rows += transpose(maps).values()
    pivots = rref(rows)
    outside = [c - n for c in pivots if c >= n]
    if outside:
        raise NotInSpan(images[min(outside)])
    zero = Expr.const(ctx, 0)
    return [[pivots[c].get(n + i, zero) if c in pivots else zero
             for c in range(n)] for i in range(len(images))]


def decompose(Xp: Generator, basis) -> list:
    """Exact coefficients of Xp over the basis; coefficients live in the
    field of expressions in the remaining parameters.

    Raises NotInSpan (with Xp) when no exact combination exists.
    """
    return _decompositions([Xp], basis)[0]


def pushforward_matrix(T: ReciprocalMap, basis) -> AutomorphismMatrix:
    """Columns are the decompositions of T_* basis[i] over the primed
    basis; entry (n, i) multiplies basis[n]."""
    basis = list(basis)
    cols = _decompositions(_pushforwards(T, basis), basis)
    return AutomorphismMatrix(tuple(zip(*cols)))
