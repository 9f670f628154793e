"""Differential tests of the sparse exact row reducer against sympy."""

import copy
import random

import pytest

from recipgas.gasdyn import standard_context
from recipgas.symkernel import Expr, parse
from recipgas.symkernel.linalg import (det3, nullspace, reduce_row, rref,
                                       solve)
from recipgas.symkernel.poly import QQ

sympy = pytest.importorskip("sympy")

SEEDS = range(80)


def _random_matrix(rng):
    """Dense rows of a small sparse rational matrix with zero rows,
    duplicate rows and rows that combine earlier ones."""
    ncols = rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([QQ(0)] * ncols)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.35 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            ca, cb = QQ(rng.randint(-3, 3)), QQ(rng.randint(1, 3), 2)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            rows.append([QQ(rng.randint(-5, 5), rng.randint(1, 4))
                         if rng.random() < 0.4 else QQ(0)
                         for _ in range(ncols)])
    return rows, ncols


def _sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _q(x):
    x = QQ(x)
    return sympy.Rational(x.numerator, x.denominator)


def _sym(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [_q(v) for r in rows for v in r])


def test_rref_matches_sympy():
    for seed in SEEDS:
        rows, ncols = _random_matrix(random.Random(seed))
        ref, ref_pivots = _sym(rows, ncols).rref()
        # even seeds pass the zero entries too
        given = _sparse(rows) if seed % 2 else [dict(enumerate(r))
                                                for r in rows]
        before = copy.deepcopy(given)
        pivots = rref(given)
        assert given == before, seed
        assert tuple(sorted(pivots)) == ref_pivots, seed
        for i, c in enumerate(sorted(pivots)):
            assert [_q(pivots[c].get(k, 0)) for k in range(ncols)] \
                == list(ref.row(i)), seed


def test_nullspace_matches_sympy():
    for seed in SEEDS:
        rows, ncols = _random_matrix(random.Random(seed))
        got = nullspace(_sparse(rows), ncols)
        want = _sym(rows, ncols).nullspace()
        assert [[_q(x) for x in v] for v in got] \
            == [list(v) for v in want], seed


def _singleton_rich_matrix(rng):
    """Sparse rows with explicit zero entries of a rational matrix whose
    columns the forced-column pass of rref mostly settles.

    A chain c0, c1, ... puts one row at c0 alone and then, for each link,
    a row at c(i-1) and c(i): that row becomes a singleton only after
    c(i-1) is forced.  The rows come shuffled, so a chain may meet its
    links in any order.  Explicit zeros, up to a whole row of them, are no
    entries; the rows left over mix forced and free columns, and some
    two-entry rows over free columns never become singletons.
    """
    ncols = rng.randint(3, 9)
    cols = list(range(ncols))
    rng.shuffle(cols)
    chain = cols[:rng.randint(2, ncols)]
    nonzero = lambda: QQ(rng.choice([-1, 1]) * rng.randint(1, 5),
                         rng.randint(1, 3))
    rows = [{chain[0]: nonzero()}]
    rows += [{a: nonzero(), b: nonzero()} for a, b in zip(chain, chain[1:])]
    for _ in range(rng.randint(1, 3)):
        rows.append({c: nonzero() for c in rng.sample(range(ncols), 2)})
    for _ in range(rng.randint(0, 2)):
        rows.append({c: nonzero()
                     for c in rng.sample(range(ncols),
                                         rng.randint(1, ncols))})
    for row in rng.sample(rows, rng.randint(1, len(rows))):
        row[rng.randrange(ncols)] = QQ(0)
    if rng.random() < 0.3:
        rows.append({rng.randrange(ncols): QQ(0)})
    rng.shuffle(rows)
    return rows, ncols


def _dense(rows, ncols):
    return [[row.get(c, QQ(0)) for c in range(ncols)] for row in rows]


def test_forced_columns_match_sympy():
    for seed in SEEDS:
        given, ncols = _singleton_rich_matrix(random.Random(seed))
        rows = _dense(given, ncols)
        before = copy.deepcopy(given)
        ref, ref_pivots = _sym(rows, ncols).rref()
        pivots = rref(given)
        assert given == before, seed
        assert tuple(sorted(pivots)) == ref_pivots, seed
        for i, c in enumerate(sorted(pivots)):
            assert [_q(pivots[c].get(k, 0)) for k in range(ncols)] \
                == list(ref.row(i)), seed
        got = nullspace(given, ncols)
        assert given == before, seed
        assert [[_q(x) for x in v] for v in got] \
            == [list(v) for v in _sym(rows, ncols).nullspace()], seed


def test_reduce_row_decides_span_like_sympy_rank():
    for seed in SEEDS:
        rng = random.Random(seed)
        rows, ncols = _random_matrix(rng)
        pivots = rref(_sparse(rows))
        rank = _sym(rows, ncols).rank()
        probes = [[QQ(rng.randint(-4, 4)) for _ in range(ncols)]]
        if rows:
            probes.append([2 * x - y for x, y in
                           zip(rng.choice(rows), rng.choice(rows))])
        for probe in probes:
            in_span = _sym(rows + [probe], ncols).rank() == rank
            rest = reduce_row(pivots, dict(enumerate(probe)))
            assert (not rest) == in_span, seed
            assert not set(rest) & set(pivots), seed


def test_solve_matches_sympy():
    outcomes = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        rows, ncols = _random_matrix(rng)
        if rng.random() < 0.5:
            # consistent by construction: b = A x0
            x0 = [QQ(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(ncols)]
            rhs = [sum((a * x for a, x in zip(r, x0)), QQ(0)) for r in rows]
        else:
            rhs = [QQ(rng.randint(-3, 3)) for _ in rows]
        got = solve(_sparse([r + [b] for r, b in zip(rows, rhs)]), ncols,
                    QQ(0))
        try:
            sol, params = _sym(rows, ncols).gauss_jordan_solve(
                _sym([[b] for b in rhs], 1))
        except ValueError:
            assert got is None, seed
            outcomes.add("inconsistent")
            continue
        # sympy's particular solution with every free parameter at 0
        want = sol.subs({t: 0 for t in params})
        assert [_q(x) for x in got] == list(want), seed
        outcomes.add("free" if params else "unique")
    assert outcomes == {"inconsistent", "free", "unique"}


def test_solve_inconsistent_and_empty():
    # x + y = 1, 2x + 2y = 3
    rows = [{0: QQ(1), 1: QQ(1), 2: QQ(1)}, {0: QQ(2), 1: QQ(2), 2: QQ(3)}]
    assert solve(rows, 2, QQ(0)) is None
    # a right-hand side with no matrix entries at all
    assert solve([{2: QQ(5)}], 2, QQ(0)) is None
    assert solve([], 3, QQ(0)) == [QQ(0)] * 3
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert rref([{}, {0: QQ(0)}]) == {}


def test_solve_finds_a_forced_right_hand_side():
    # 2x = 0 forces x, which leaves x + 0y = 3 with only its right-hand
    # side: inconsistent
    rows = [{0: QQ(1), 1: QQ(0), 2: QQ(3)}, {0: QQ(2), 2: QQ(0)}]
    assert solve(rows, 2, QQ(0)) is None
    # the same with y + 0 = 0 instead has the solution x = y = 0
    rows[0] = {1: QQ(1), 2: QQ(0)}
    assert solve(rows, 2, QQ(0)) == [QQ(0), QQ(0)]


def test_solve_over_expressions_matches_cramer():
    ctx = standard_context()
    e = lambda s: parse(ctx, s)
    A = [[e("b1"), e("1"), e("0")],
         [e("b2"), e("b3"), e("q12")],
         [e("0"), e("k"), e("b4")]]
    b = [e("1"), e("lam"), e("b1*b4")]
    zero = Expr.const(ctx, 0)
    aug = [{c: v for c, v in enumerate(row + [bi]) if not v.is_zero()}
           for row, bi in zip(A, b)]
    got = solve(aug, 3, zero)
    det = det3(A)
    for c in range(3):
        Ac = [[b[i] if j == c else A[i][j] for j in range(3)]
              for i in range(3)]
        assert got[c] == det3(Ac) / det
    # the same system with a dependent row appended stays consistent,
    # and a contradictory one makes it inconsistent
    extra = {c: v * e("b2") for c, v in aug[0].items()}
    assert solve(aug + [extra], 3, zero) == got
    bad = dict(extra)
    bad[3] = bad[3] + 1
    assert solve(aug + [bad], 3, zero) is None


def test_solve_over_expressions_with_a_forced_column():
    # b1*x0 = 0, with explicit zero entries, forces x0 before the
    # elimination of the other two rows
    ctx = standard_context()
    e = lambda s: parse(ctx, s)
    A = [[e("b1"), e("0"), e("0")],
         [e("b2"), e("b3"), e("q12")],
         [e("lam"), e("k"), e("b4")]]
    b = [e("0"), e("1"), e("lam")]
    zero = Expr.const(ctx, 0)
    aug = [dict(enumerate(row + [bi])) for row, bi in zip(A, b)]
    before = [dict(row) for row in aug]
    got = solve(aug, 3, zero)
    assert aug == before
    det = det3(A)
    for c in range(3):
        Ac = [[b[i] if j == c else A[i][j] for j in range(3)]
              for i in range(3)]
        assert got[c] == det3(Ac) / det
    assert got[0] == zero
    # b1*x0 = 0 forces x0, then b2*x0 + k*x1 = 0 forces x1, which leaves
    # x1 = b3 with only its right-hand side: inconsistent
    chain = [{0: e("b1")}, {0: e("b2"), 1: e("k")}, {1: e("1"), 3: e("b3")}]
    assert solve(chain, 3, zero) is None
