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
from ..symkernel.linalg import adj2, mul2, solve, transpose
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


def decompose(Xp: Generator, basis) -> list:
    """Exact coefficients of Xp over the basis; coefficients live in the
    field of expressions in the remaining parameters.

    Raises NotInSpan (with the residual generator) when no exact
    combination exists.
    """
    ctx = Xp.ctx
    basis = list(basis)
    slots_all = [list(g.slots()) for g in basis] + [list(Xp.slots())]
    names = _collectable_names(ctx, [s for gs in slots_all for s in gs])
    rows = []
    for snum in range(9):
        maps = []
        for gs in slots_all:
            try:
                maps.append(gs[snum].collect(names))
            except SymkernelError:
                raise NotInSpan(Xp)
        rows += transpose(maps).values()
    sol = solve(rows, len(basis), Expr.const(ctx, 0))
    if sol is None:
        raise NotInSpan(Xp)
    return sol


def pushforward_matrix(T: ReciprocalMap, basis) -> AutomorphismMatrix:
    """Columns are the decompositions of T_* basis[i] over the primed
    basis; entry (n, i) multiplies basis[n]."""
    cols = [decompose(Xp, basis) for Xp in _pushforwards(T, basis)]
    entries = tuple(tuple(cols[i][n] for i in range(len(basis)))
                    for n in range(len(basis)))
    return AutomorphismMatrix(entries)
