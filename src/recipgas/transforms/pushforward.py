"""Action of a reciprocal map on generators, and exact decomposition over a
generator basis.

The pushforward applies the generator to each map component and re-expresses
the result in primed variables through the attached inverse; the form part
transforms as

    M' = (X(f) + f * M_X) * f^{-1},

with all coefficient functions rewritten in primed symbols.
"""

from __future__ import annotations

from ..liealg import AutomorphismMatrix, Generator, NotInSpan
from ..symkernel import Expr
from ..symkernel.errors import SymkernelError
from ..symkernel.linalg import solve, transpose
from .maps import NotInvertible, ReciprocalMap


def pushforward(T: ReciprocalMap, X: Generator) -> Generator:
    """T_* X, expressed in primed variables (same symbol names)."""
    if T.inverse_fields is None:
        raise NotInvertible("%s has no inverse attached" % T.name)
    ctx = T.ctx
    fields = [X.apply(comp) for comp in
              (T.R, T.U, T.V, T.P, T.H)]
    xf = [[X.apply(T.f[i][j]) for j in range(2)] for i in range(2)]
    mx = X.matrix()
    num = [[xf[i][j] + T.f[i][0] * mx[0][j] + T.f[i][1] * mx[1][j]
            for j in range(2)] for i in range(2)]
    det = T.det_f()
    if det.is_zero():
        raise NotInvertible("form matrix of %s is singular" % T.name)
    adj = ((T.f[1][1], -T.f[0][1]), (-T.f[1][0], T.f[0][0]))
    m = [[(num[i][0] * adj[0][j] + num[i][1] * adj[1][j]) / det
          for j in range(2)] for i in range(2)]
    inv = T.inverse_fields
    fields = [e.substitute(inv) for e in fields]
    m = [[m[i][j].substitute(inv) for j in range(2)] for i in range(2)]
    return Generator(fields[0], fields[1], fields[2], fields[3], fields[4],
                     m[0][0], m[0][1], m[1][0], m[1][1],
                     label="%s_*(%s)" % (T.name, X.label))


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
    cols = []
    for X in basis:
        cols.append(decompose(pushforward(T, X), basis))
    entries = tuple(tuple(cols[i][n] for i in range(len(basis)))
                    for n in range(len(basis)))
    return AutomorphismMatrix(entries)
