"""The Newton start of a transformed flow against the blocked search.

TransformedFlow._initial_guess picks, for each primed target, the grid
node nearest in primed coordinates, the lowest flat index on ties: a
search of at most _GUESS_BLOCKED target-node pairs compares every target
with every node (_nearest_blocked), a larger one goes through buckets of
the primed nodes (_NodeBuckets).  The drawn primed grids are smooth
images of uniform grids, grids of mirror-symmetric nodes with targets at
exact distance ties, and thin grids (a height a millionth of the width).
On each, whatever its size, the bucket search must choose the indices of
the blocked search over every node.

TransformedFlow.invert_point runs _INVERT_CHUNK targets at a time, start
search included.  On drawn transforms the inversion must give the same
coordinates bit for bit in chunks of 7 targets as in one chunk, and a
failing inversion must name the first target that fails, whatever the
chunk size.

A primed grid without area (a zero or non-finite width or height) and a
non-finite target are refused with NumericDomain.
"""

import math
from fractions import Fraction
from functools import cache
from unittest import mock

import numpy as np
import pytest

from recipgas import numerics
from recipgas.gasdyn import standard_context
from recipgas.numerics import (ConstantFlow, GridSpec, NewtonDivergence,
                               ShearFlow, TransformedFlow, VortexFlow,
                               make_solution)
from recipgas.symkernel.errors import NumericDomain
from recipgas.transforms import bateman

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_start_is_nearest(xp, yp, xt, yt):
    xp, yp = xp.ravel(), yp.ravel()
    got = numerics._NodeBuckets(xp, yp).nearest(xt, yt)
    assert np.array_equal(got, numerics._nearest_blocked(xp, yp, xt, yt))


def transformed_flow(xp, yp):
    nx, ny = xp.shape
    sol = make_solution(ConstantFlow(), GridSpec(0.0, 0.0, 1.0, 1.0, nx, ny))
    # neither the search nor the refusals read the map: no evaluator
    return TransformedFlow(sol, None, xp, yp)


sizes = st.integers(4, 40)
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
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_start_on_smooth_images(nx, ny, a, count, seed):
    X, Y = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                       indexing="ij")
    xp = a[0] * X + a[1] * Y + a[4] * np.sin(3 * Y) + X * X
    yp = a[2] * X + a[3] * Y + a[5] * X * Y + np.exp(Y)
    xt, yt = _targets(np.random.default_rng(seed), xp, yp, count)
    assert_start_is_nearest(xp, yp, xt, yt)


@given(m=st.integers(2, 15), n=st.integers(2, 15),
       scale=st.sampled_from([2.0 ** -7, 1.0, 2.0 ** 5]),
       mirror=st.sampled_from(["none", "x", "xy", "transpose"]),
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_start_breaks_exact_ties_to_the_lowest_index(m, n, scale, mirror,
                                                     count, seed):
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
    assert_start_is_nearest(xp, yp, xt, yt)


@given(nx=sizes, ny=sizes, count=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_start_on_thin_grids(nx, ny, count, seed):
    # a row of buckets: far targets search to the ends of the row
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-1, 1, (nx, ny))
    yp = rng.uniform(-1, 1, (nx, ny)) * 1e-6
    xt, yt = _targets(rng, xp, yp, count)
    assert_start_is_nearest(xp, yp, xt, yt)


def test_rings_stop_within_the_grid_of_buckets():
    # a 129 x 129 grid squashed to a height of 1e-4, one row of buckets,
    # and two targets far off it: every bucket must be searched, and the
    # capped row of buckets is searched in at most max(shape) rings, each
    # past the first holding only the two offsets along the row
    X, Y = np.meshgrid(np.linspace(0, 1, 129), np.linspace(0, 1e-4, 129),
                       indexing="ij")
    xp, yp = X.ravel(), Y.ravel()
    xt, yt = np.array([0.5, -3.0]), np.array([40.0, -25.0])
    buckets = numerics._NodeBuckets(xp, yp)
    assert buckets.shape[1] == 1
    assert buckets.shape[0] <= 2 * math.isqrt(xp.size) + 1
    ring, offsets = numerics._ring, {}

    def counted(r, shape):
        di, dj = ring(r, shape)
        offsets[r] = di.size
        return di, dj

    with mock.patch.object(numerics, "_ring", counted):
        got = buckets.nearest(xt, yt)
    assert np.array_equal(got, numerics._nearest_blocked(xp, yp, xt, yt))
    assert len(offsets) <= max(buckets.shape)
    assert max(offsets.values()) == offsets[1] == 3
    assert all(n <= 2 for r, n in offsets.items() if r > 1)


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


_MAPS = {"bateman(1, 0, 1, 0)": (1, 0, 1, 0),
         "bateman(1/2, 1/4, 1, 1/8)": (Fraction(1, 2), Fraction(1, 4), 1,
                                       Fraction(1, 8))}
_FLOWS = {"shear": (ShearFlow.example(), (0.0, 0.0, 1.0)),
          "vortex": (VortexFlow(w0=1, m=1), (0.5, 0.3, 0.5))}


@cache
def _evaluator(map_name, flow_name):
    T = bateman(standard_context(), *_MAPS[map_name], entropy="identity")
    return numerics._MapEvaluator(T, _FLOWS[flow_name][0])


def drawn_transform(map_name, flow_name, nx, ny):
    """The transformed flow of a drawn map and flow on an nx x ny grid over
    the flow's square (origin and side)."""
    flow, (x0, y0, side) = _FLOWS[flow_name]
    grid = GridSpec(x0, y0, side / (nx - 1), side / (ny - 1), nx, ny)
    ev = _evaluator(map_name, flow_name)
    return TransformedFlow(make_solution(flow, grid), ev,
                           *ev.coordinates(grid))


def _between_nodes(rng, tf, count):
    """count targets inside primed cells: each a drawn convex combination
    of the four corners of a drawn cell."""
    i = rng.integers(0, tf.xp.shape[0] - 1, count)
    j = rng.integers(0, tf.xp.shape[1] - 1, count)
    w = rng.dirichlet(np.ones(4), count).T
    corners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
    return (sum(wk * tf.xp[c] for wk, c in zip(w, corners)),
            sum(wk * tf.yp[c] for wk, c in zip(w, corners)))


@given(map_name=st.sampled_from(list(_MAPS)),
       flow_name=st.sampled_from(list(_FLOWS)), nx=sizes, ny=sizes,
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_inversion_in_chunks_is_bit_identical(map_name, flow_name, nx, ny,
                                              count, seed):
    tf = drawn_transform(map_name, flow_name, nx, ny)
    xt, yt = _between_nodes(np.random.default_rng(seed), tf, count)
    whole = tf.invert_point(xt, yt)
    with mock.patch.object(numerics, "_INVERT_CHUNK", 7):
        chunked = tf.invert_point(xt, yt)
    assert whole[0].tobytes() == chunked[0].tobytes()
    assert whole[1].tobytes() == chunked[1].tobytes()


@pytest.mark.parametrize("chunk", [7, numerics._INVERT_CHUNK, 1 << 20])
def test_failing_inversion_names_the_first_failure(monkeypatch, chunk):
    # with one iteration only targets at primed nodes converge: the first
    # target between nodes is the 10th, in the second chunk of 7, and an
    # inversion of all targets at once names it too
    tf = drawn_transform("bateman(1, 0, 1, 0)", "vortex", 9, 9)
    rng = np.random.default_rng(5)
    xt, yt = _between_nodes(rng, tf, 30)
    at_node = np.r_[np.arange(9), rng.integers(10, 30, 8)]
    k = rng.integers(0, tf.xp.size, at_node.size)
    xt[at_node], yt[at_node] = tf.xp.ravel()[k], tf.yp.ravel()[k]
    monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(numerics, "_INVERT_CHUNK", chunk)
    with pytest.raises(NewtonDivergence) as failure:
        tf.invert_point(xt, yt)
    assert str(failure.value) == "no convergence at (%g, %g)" % (xt[9],
                                                                 yt[9])
