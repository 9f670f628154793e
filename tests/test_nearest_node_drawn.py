"""The Newton start of a transformed flow against the blocked search.

TransformedFlow._initial_guess picks, for each primed target, the grid
node nearest in primed coordinates, the lowest flat index on ties: a
search of at most _GUESS_BLOCKED target-node pairs compares every target
with every node (_nearest_blocked), a larger one goes through buckets of
the primed nodes (_NodeBuckets).  The drawn primed grids are smooth
images of uniform grids, grids of mirror-symmetric nodes with targets at
exact distance ties, and thin grids (a height a millionth of the width).
On each, whatever its size, the bucket search must choose the indices of
the blocked search over every node.  Each draw also picks the number of
targets per chunk of the bucket search, so that several chunks run.

A primed grid without area (a zero or non-finite width or height) and a
non-finite target are refused with NumericDomain.
"""

import math
from unittest import mock

import numpy as np
import pytest

from recipgas import numerics
from recipgas.numerics import (ConstantFlow, GridSpec, TransformedFlow,
                               make_solution)
from recipgas.symkernel.errors import NumericDomain

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_start_is_nearest(xp, yp, xt, yt, chunk):
    xp, yp = xp.ravel(), yp.ravel()
    with mock.patch.object(numerics, "_BUCKET_CHUNK", chunk):
        got = numerics._NodeBuckets(xp, yp).nearest(xt, yt)
    assert np.array_equal(got, numerics._nearest_blocked(xp, yp, xt, yt))


def transformed_flow(xp, yp):
    nx, ny = xp.shape
    sol = make_solution(ConstantFlow(), GridSpec(0.0, 0.0, 1.0, 1.0, nx, ny))
    # neither the search nor the refusals read the map: no evaluator
    return TransformedFlow(sol, None, xp, yp)


sizes = st.integers(4, 40)
chunks = st.sampled_from([numerics._BUCKET_CHUNK, 7])
coefficients = st.floats(-2, 2)


def _targets(rng, xp, yp, count):
    """count targets over the bounding box of the primed nodes and a margin
    around it, the first few at nodes and far outside."""
    nodes = np.column_stack([xp.ravel(), yp.ravel()])
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    pad = np.maximum(hi - lo, 1.0) / 4
    pts = rng.uniform(lo - pad, hi + pad, (count, 2))
    k = min(count, 4)
    pts[:k] = nodes[rng.integers(0, len(nodes), k)]
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


@given(nx=sizes, ny=sizes, count=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1), chunk=chunks)
def test_start_on_thin_grids(nx, ny, count, seed, chunk):
    # a row of buckets: far targets search to the ends of the row
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-1, 1, (nx, ny))
    yp = rng.uniform(-1, 1, (nx, ny)) * 1e-6
    xt, yt = _targets(rng, xp, yp, count)
    assert_start_is_nearest(xp, yp, xt, yt, chunk)


def test_rings_stop_within_the_grid_of_buckets():
    # a 129 x 129 grid squashed to a height of 1e-4, one row of buckets,
    # and two targets far off it: every bucket must be searched, and the
    # capped row of buckets is searched in at most max(shape) rings
    X, Y = np.meshgrid(np.linspace(0, 1, 129), np.linspace(0, 1e-4, 129),
                       indexing="ij")
    xp, yp = X.ravel(), Y.ravel()
    xt, yt = np.array([0.5, -3.0]), np.array([40.0, -25.0])
    buckets = numerics._NodeBuckets(xp, yp)
    assert buckets.shape[1] == 1
    assert buckets.shape[0] <= 2 * math.isqrt(xp.size) + 1
    with mock.patch.object(numerics, "_ring", wraps=numerics._ring) as ring:
        got = buckets.nearest(xt, yt)
    assert np.array_equal(got, numerics._nearest_blocked(xp, yp, xt, yt))
    assert ring.call_count <= max(buckets.shape)


@given(nx=sizes, ny=sizes,
       kind=st.sampled_from(["width", "height", "nan", "inf", "-inf"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_primed_grid_without_area_is_refused(nx, ny, kind, seed):
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-1, 1, (nx, ny))
    yp = rng.uniform(-1, 1, (nx, ny))
    if kind == "width":
        xp[:] = 0.25
    elif kind == "height":
        yp[:] = -3.0
    else:
        (xp, yp)[rng.integers(2)][rng.integers(nx), rng.integers(ny)] = \
            float(kind)
    with pytest.raises(NumericDomain, match="primed grid has no area"):
        transformed_flow(xp, yp)


@given(nx=sizes, ny=sizes, kind=st.sampled_from(["target", "targets"]),
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_non_finite_target_is_refused(nx, ny, kind, count, seed):
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-1, 1, (nx, ny))
    yp = rng.uniform(-1, 1, (nx, ny))
    xt, yt = _targets(rng, xp, yp, count)
    if kind == "target":
        (xt, yt)[rng.integers(2)][rng.integers(count)] = \
            rng.choice([np.nan, np.inf, -np.inf])
    else:
        xt[:] = np.nan
    with pytest.raises(NumericDomain, match="primed point is not finite"):
        transformed_flow(xp, yp).invert_point(xt, yt)
