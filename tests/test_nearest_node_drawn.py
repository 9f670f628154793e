"""The Newton start of a transformed flow against the blocked search.

TransformedFlow._initial_guess picks, for each primed target, the grid
node nearest in primed coordinates, the lowest flat index on ties; larger
searches go through buckets of the primed nodes.  The drawn primed grids
are smooth images of uniform grids, grids of mirror-symmetric nodes with
targets at exact distance ties, and degenerate or thin grids (zero width
or height, a non-finite coordinate, a height a millionth of the width).  The chosen indices must equal those of
the blocked search over every node.  Every drawn search on a
nondegenerate grid goes through the buckets, whatever its size, and each
draw also picks the number of targets per chunk of the bucket search, so
that several chunks run.
"""

from unittest import mock

import numpy as np
import pytest

from recipgas import numerics
from recipgas.numerics import (ConstantFlow, GridSpec, TransformedFlow,
                               make_solution)

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_start_is_nearest(xp, yp, xt, yt, chunk):
    nx, ny = xp.shape
    sol = make_solution(ConstantFlow(), GridSpec(0.0, 0.0, 1.0, 1.0, nx, ny))
    # the nearest-node search reads no map: no evaluator
    tf = TransformedFlow(sol, None, xp, yp)
    with mock.patch.object(numerics, "_GUESS_BLOCKED", 0), \
            mock.patch.object(numerics, "_BUCKET_CHUNK", chunk):
        _, _, (i, j) = tf._initial_guess(xt, yt)
    flat = numerics._nearest_blocked(xp.ravel(), yp.ravel(), xt, yt)
    want_i, want_j = np.unravel_index(flat, xp.shape)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


sizes = st.integers(4, 40)
chunks = st.sampled_from([numerics._BUCKET_CHUNK, 7])
coefficients = st.floats(-2, 2)


def _targets(rng, xp, yp, count):
    """count targets over the bounding box of the finite primed nodes and
    a margin around it, the first few at nodes and far outside."""
    nodes = np.column_stack([xp.ravel(), yp.ravel()])
    finite = nodes[np.isfinite(nodes).all(axis=1)]
    lo, hi = finite.min(axis=0), finite.max(axis=0)
    pad = np.maximum(hi - lo, 1.0) / 4
    pts = rng.uniform(lo - pad, hi + pad, (count, 2))
    k = min(count, 4)
    pts[:k] = finite[rng.integers(0, len(finite), k)]
    if count > 6:
        pts[5] = hi + 50 * (hi - lo + 1)
        pts[6] = lo - 50 * (hi - lo + 1)
    return pts[:, 0].copy(), pts[:, 1].copy()


@given(nx=sizes, ny=sizes, a=st.tuples(*[coefficients] * 6),
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       chunk=chunks)
def test_start_on_smooth_images(nx, ny, a, count, seed, chunk):
    X, Y = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                       indexing="ij")
    xp = a[0] * X + a[1] * Y + a[4] * np.sin(3 * Y) + X * X
    yp = a[2] * X + a[3] * Y + a[5] * X * Y + np.exp(Y)
    xt, yt = _targets(np.random.default_rng(seed), xp, yp, count)
    assert_start_is_nearest(xp, yp, xt, yt, chunk)


@given(m=st.integers(2, 15), n=st.integers(2, 15),
       scale=st.sampled_from([2.0 ** -7, 1.0, 2.0 ** 5]),
       mirror=st.sampled_from(["none", "x", "xy", "transpose"]),
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       chunk=chunks)
def test_start_breaks_exact_ties_to_the_lowest_index(m, n, scale, mirror,
                                                     count, seed, chunk):
    # nodes on a symmetric integer lattice times a power of two, targets at
    # lattice points and half-integer points: every distance is exact, and
    # a target off the lattice ties two or four nodes
    xs = np.arange(-m, m + 1) * scale
    ys = np.arange(-n, n + 1) * scale
    if mirror in ("x", "xy"):
        xs = xs[::-1]
    if mirror == "xy":
        ys = ys[::-1]
    xp, yp = np.meshgrid(xs, ys, indexing="ij")
    if mirror == "transpose":
        xp, yp = yp.T.copy(), xp.T.copy()
    rng = np.random.default_rng(seed)
    xt = rng.integers(-2 * m - 2, 2 * m + 3, count) * scale / 2
    yt = rng.integers(-2 * n - 2, 2 * n + 3, count) * scale / 2
    assert_start_is_nearest(xp, yp, xt, yt, chunk)


@given(nx=sizes, ny=sizes,
       kind=st.sampled_from(["width", "height", "thin", "nan", "inf",
                             "target", "targets"]),
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       chunk=chunks)
def test_start_on_degenerate_and_thin_grids(nx, ny, kind, count, seed, chunk):
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-1, 1, (nx, ny))
    yp = rng.uniform(-1, 1, (nx, ny))
    if kind == "width":
        xp[:] = 0.25
    elif kind == "height":
        yp[:] = -3.0
    elif kind == "thin":
        # a row of buckets: far targets outgrow the rings
        yp *= 1e-6
    elif kind in ("nan", "inf"):
        xp[rng.integers(nx), rng.integers(ny)] = float(kind)
    xt, yt = _targets(rng, xp, yp, count)
    if kind == "target":
        # non-finite targets leave the buckets for the blocked search
        xt[rng.integers(count)] = np.nan
        yt[rng.integers(count)] = np.inf
    elif kind == "targets":
        xt[:] = np.nan
    assert_start_is_nearest(xp, yp, xt, yt, chunk)
