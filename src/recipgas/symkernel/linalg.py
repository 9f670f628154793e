"""Sparse exact row reduction over a field (Fraction/QQ or Expr).

Elements only need +, -, *, / and an exact equality with 0; both exact
rationals and symbolic expressions qualify.  A row is a sparse dict
{col: value} with columns that sort; zero values are dropped on entry.
No pivot-size heuristics: a row's pivot is its leftmost nonzero column, so
verdicts never depend on numeric magnitude.  The reduced row echelon form
of a matrix is unique, so every result below is a value of the matrix
alone, not of its row order or of the order of the work: rref first
settles, with no arithmetic, every column that a one-entry row forces
(most columns of the sparse ansatz matrices), and only eliminates the
rows left.
"""

from __future__ import annotations


def _is_zero(x) -> bool:
    return bool(x == 0)


def _subtract(row, f, pivot):
    """row -= f * pivot in place, dropping entries that cancel."""
    for c, v in pivot.items():
        nv = row.get(c, 0) - f * v
        if _is_zero(nv):
            row.pop(c, None)
        else:
            row[c] = nv


def transpose(vectors):
    """Sparse rows {key: {col: value}} of the matrix whose col-th column
    is the sparse vector vectors[col] = {key: value}."""
    rows: dict = {}
    for col, vec in enumerate(vectors):
        for key, val in vec.items():
            rows.setdefault(key, {})[col] = val
    return rows


def rref(rows):
    """Reduced row echelon form: {pivot_col: row}, each row normalized to 1
    at its pivot column and free of every other pivot column.

    A forced-column pass runs first.  A row whose only nonzero entry is v
    at column c puts e_c in the row space, so the pivot row of c is
    {c: v / v} and column c drops out of every other row with no
    arithmetic; dropping it can leave another row with one entry, so the
    pass repeats to a fixed point.  The rows left, copied without their
    forced columns, are eliminated as usual.  The RREF is unique, so the
    pass changes the work and not the result.  The input rows are never
    written, and each entry is tested for zero once: the pass keeps
    references to the rows and copies only those left to eliminate.
    """
    pending = []
    for row in rows:
        zeros = [c for c, v in row.items() if _is_zero(v)]
        if zeros:
            row = {c: v for c, v in row.items() if c not in zeros}
        if row:
            pending.append(row)
    pivots = {}
    forced = -1
    while forced != len(pivots):
        forced = len(pivots)
        rest = []
        for row in pending:
            free = [c for c in row if c not in pivots]
            if len(free) == 1:
                c = free[0]
                pivots[c] = {c: row[c] / row[c]}
            elif free:
                rest.append(row)
        pending = rest
    rest = [{c: v for c, v in row.items() if c not in pivots}
            for row in pending]
    for row in rest:
        while row:
            c = min(row)
            if c not in pivots:
                pv = row[c]
                pivots[c] = {cc: v / pv for cc, v in row.items()}
                break
            _subtract(row, row[c], pivots[c])
    # back-substitute, highest pivot first, so that each row only meets
    # pivot rows that are already reduced
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [cc for cc in row if cc != c and cc in pivots]:
            _subtract(row, row[c2], pivots[c2])
    return pivots


def reduce_row(pivots, row):
    """Remainder of row after eliminating the pivot columns of an rref;
    empty exactly when row lies in the span of the pivot rows."""
    row = {c: v for c, v in row.items() if not _is_zero(v)}
    for c in [c for c in row if c in pivots]:
        _subtract(row, row[c], pivots[c])
    return row


def solve(rows, ncols, zero):
    """Solve A x = b exactly.

    rows: sparse rows of the augmented matrix [A | b], column ncols holding
    b.  Returns the solution vector (free columns get zero), or None if the
    system is inconsistent.
    """
    pivots = rref(rows)
    if ncols in pivots:
        return None
    return [pivots[c].get(ncols, zero) if c in pivots else zero
            for c in range(ncols)]


def nullspace(rows, ncols):
    """Basis of the right nullspace of a matrix given as sparse rows.

    Returns a list of dense basis vectors (length ncols) over the same
    field, one per free column, whose entry there is 1.
    """
    pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def det2(m):
    """Determinant of a 2x2 matrix of field elements."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def adj2(m):
    """Adjugate of a 2x2 matrix: m adj2(m) = adj2(m) m = det2(m) I."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def mul2(a, b):
    """Product a b of 2x2 matrices."""
    return tuple(tuple(r[0] * b[0][j] + r[1] * b[1][j] for j in (0, 1))
                 for r in a)


def det3(m):
    """Determinant of a 3x3 matrix of field elements."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
