"""Numeric transformation of exact solutions on structured grids.

Transformed coordinates are reconstructed by composite-Simpson path
integration of the transformation differentials along axis-aligned paths;
closedness is probed by loop integrals; results are re-verified by central
finite-difference residuals of the governing system on the primed grid.

Everything works on arrays of points: a map's form matrix, fields and
denominators are each compiled on first use (symkernel.compile_exprs), so
a caller compiles only what it evaluates; a Simpson rule takes all its
nodes in one evaluation, and Newton inversion runs on all target points at
once, each started from the grid node nearest in primed coordinates, found
by comparing with every node in a small search and through a uniform grid
of buckets, in expected near-linear time, in a large one, with its first
residual read from that node's primed coordinates.  Analytic flows
therefore take numpy arrays in fields(x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gasdyn import FIELDS, RESIDUAL_NAMES, InvalidParams
from .symkernel import compile_exprs
from .symkernel.errors import NumericDomain, SymkernelError
from .transforms.maps import ReciprocalMap


class NewtonDivergence(SymkernelError):
    pass


PATH_STEPS = 8           # Simpson subintervals per cell of a path
LOOP_STEPS = 256         # Simpson subintervals per segment of a loop
DEN_FLOOR = 1e-9         # smallest |map denominator| at a grid node
NEWTON_TOL = 1e-12       # Newton stops at |rx| + |ry| below this
NEWTON_MAX_ITER = 50     # Newton iterations before NewtonDivergence
RESIDUAL_FLOOR = 1e-13   # FD residuals below it on both grids converged


@dataclass(frozen=True)
class GridSpec:
    x0: float
    y0: float
    hx: float
    hy: float
    nx: int
    ny: int

    def xs(self):
        return self.x0 + self.hx * np.arange(self.nx)

    def ys(self):
        return self.y0 + self.hy * np.arange(self.ny)

    def boundary_loop(self):
        """The grid's boundary as a closed counterclockwise polyline."""
        x1 = self.x0 + self.hx * (self.nx - 1)
        y1 = self.y0 + self.hy * (self.ny - 1)
        return [(self.x0, self.y0), (x1, self.y0), (x1, y1), (self.x0, y1),
                (self.x0, self.y0)]

    def refined(self) -> "GridSpec":
        """Same extent, half the spacing."""
        return GridSpec(self.x0, self.y0, self.hx / 2, self.hy / 2,
                        2 * self.nx - 1, 2 * self.ny - 1)


@dataclass
class GridSolution:
    grid: GridSpec
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    S: np.ndarray
    evaluator: object            # fields(x, y) -> (rho, u, v, p, S)

    def arrays(self):
        return (self.rho, self.u, self.v, self.p, self.S)


# --- analytic families --------------------------------------------------------


@dataclass(frozen=True)
class ConstantFlow:
    u0: float = 1.0
    v0: float = 0.0
    rho0: float = 1.0
    p0: float = 1.0
    S0: float = 0.0

    def fields(self, x, y):
        return (self.rho0, self.u0, self.v0, self.p0, self.S0)


@dataclass(frozen=True)
class ShearFlow:
    """u = u(y), v = 0, p constant, rho = rho(y), S = S(y)."""
    u_fn: object
    rho_fn: object
    S_fn: object
    p0: float = 1.0

    @staticmethod
    def example() -> "ShearFlow":
        return ShearFlow(u_fn=lambda y: 1.0 + y * y,
                         rho_fn=lambda y: 1.0 + y * y / 2.0,
                         S_fn=lambda y: y, p0=1.0)

    def fields(self, x, y):
        return (self.rho_fn(y), self.u_fn(y), 0.0, self.p0, self.S_fn(y))


@dataclass(frozen=True)
class VortexFlow:
    """Circular flow W(r) = w0 * r^m at constant density; the pressure is
    the exact antiderivative of rho*W^2/r, so the fields solve the system
    identically away from r = 0."""
    w0: float = 1.0
    m: int = 1
    rho0: float = 1.0
    p0: float = 1.0
    s0: float = 0.0

    def fields(self, x, y):
        r2 = x * x + y * y
        r = np.sqrt(r2)
        w_over_r = self.w0 * r ** (self.m - 1)
        p = self.p0 + self.rho0 * self.w0 ** 2 * r ** (2 * self.m) \
            / (2 * self.m)
        return (self.rho0, -w_over_r * y, w_over_r * x, p, self.s0 + r2)


def make_solution(flow, grid: GridSpec) -> GridSolution:
    """Sample an analytic flow; the analytic residuals vanish identically,
    so the discrete residuals measure only the stencil error.

    flow.fields(x, y) is called once with the coordinate arrays of the
    whole grid, so it must accept numpy arrays; it may return scalars for
    fields that are constant."""
    if grid.hx == 0 or grid.hy == 0:
        raise InvalidParams("grid spacing must be nonzero")
    if isinstance(flow, VortexFlow):
        # the point of the grid's rectangle nearest the origin: 0 clamped
        # between the two edges of each axis, whichever way the axis runs
        x = sorted((0.0, grid.x0, grid.x0 + grid.hx * (grid.nx - 1)))[1]
        y = sorted((0.0, grid.y0, grid.y0 + grid.hy * (grid.ny - 1)))[1]
        if math.hypot(x, y) < 1e-6:
            raise InvalidParams("vortex grid must stay away from r = 0")
    X, Y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    arrays = [np.array(np.broadcast_to(v, X.shape), dtype=float)
              for v in flow.fields(X, Y)]
    if np.any(arrays[0] <= 0):
        raise InvalidParams("density must stay positive on the grid")
    return GridSolution(grid, *arrays, evaluator=flow)


# --- finite-difference residuals ------------------------------------------------


def fd_residuals(sol: GridSolution) -> dict:
    """Max-norm central-difference residuals at interior nodes."""
    g = sol.grid
    if g.nx < 3 or g.ny < 3:
        raise InvalidParams("need at least 3 nodes per direction")
    rho, u, v, p, S = sol.arrays()

    def dx(a):
        return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2 * g.hx)

    def dy(a):
        return (a[1:-1, 2:] - a[1:-1, :-2]) / (2 * g.hy)

    c = lambda a: a[1:-1, 1:-1]
    F1 = dx(rho * u) + dy(rho * v)
    F2 = c(rho) * (c(u) * dx(u) + c(v) * dy(u)) + dx(p)
    F3 = c(rho) * (c(u) * dx(v) + c(v) * dy(v)) + dy(p)
    F4 = c(u) * dx(S) + c(v) * dy(S)
    return {name: float(np.max(np.abs(arr))) if arr.size else 0.0
            for name, arr in zip(RESIDUAL_NAMES, (F1, F2, F3, F4))}


# --- quadrature -----------------------------------------------------------------


def simpson_line(fn, a, b, n: int):
    """Composite Simpson with n (even) subintervals from a to b, which are
    scalars or arrays of one shape.

    fn takes all nodes at once, an array of shape a.shape + (n + 1,), and
    returns values whose last axis runs over the nodes and whose other
    axes broadcast against a (extra leading axes, e.g. one per integrand,
    are kept).  The weighted values are added one by one: f(a), f(b),
    then the interior nodes from a towards b."""
    if n % 2:
        n += 1
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = (b - a) / n
    t = a[..., None] + np.arange(n + 1) * h[..., None]
    t[..., n] = b
    terms = fn(t)[..., [0, n] + list(range(1, n))]
    terms *= [1.0, 1.0] + [4.0 if k % 2 else 2.0 for k in range(1, n)]
    # cumsum adds strictly left to right
    total = np.cumsum(terms, axis=-1, out=terms)[..., -1]
    return total * h / 3.0


class _MapEvaluator:
    """Float evaluation of a reciprocal map over an analytic flow at arrays
    of points; the form matrix, the fields and the component denominators
    are each compiled on first use."""

    def __init__(self, T: ReciprocalMap, flow):
        self.T = T
        self.flow = flow

    @cached_property
    def _form(self):
        f = self.T.f
        return compile_exprs([f[0][0], f[0][1], f[1][0], f[1][1]])

    @cached_property
    def _fields(self):
        T = self.T
        return compile_exprs([T.R, T.U, T.V, T.P, T.H])

    @cached_property
    def _dens(self):
        return compile_exprs(self.T.denominators())

    def _at(self, fn, x, y):
        """fn's values at the points (x, y), stacked on a new first axis."""
        vals = fn(dict(zip(FIELDS, self.flow.fields(x, y))))
        out = np.empty((len(vals),) + np.broadcast_shapes(np.shape(x),
                                                          np.shape(y)))
        for k, v in enumerate(vals):
            out[k] = v
        return out

    def form_at(self, x, y):
        """f11, f12, f21, f22 at the points (x, y)."""
        return self._at(self._form, x, y)

    def fields_at(self, x, y):
        """The primed fields in FIELDS at the points (x, y)."""
        return self._at(self._fields, x, y)

    def check_domain(self, xs, ys):
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        small = (np.abs(self._at(self._dens, X, Y)) < DEN_FLOOR).any(axis=0)
        if small.any():
            i, j = np.argwhere(small)[0]
            raise NumericDomain(
                "map denominator vanishes near (%g, %g)" % (xs[i], ys[j]))

    def coordinates(self, g: GridSpec):
        """x', y' at every node of g by Simpson path integration from the
        grid origin (anchored to zero), along x first, then y."""
        xs, ys = g.xs(), g.ys()
        self.check_domain(xs, ys)

        # along the grid edge y = ys[0], then up each column x = xs[i];
        # the running sums start from zero and from the edge values
        edge = _path_steps(self, 0, ys[0], xs[:-1], xs[1:])
        edge = np.cumsum(np.concatenate([np.zeros((2, 1)), edge], axis=1),
                         axis=1)
        across = _path_steps(self, 1, xs[:, None], ys[None, :-1],
                             ys[None, 1:])
        cur = np.cumsum(np.concatenate([edge[:, :, None], across], axis=2),
                        axis=2)
        return cur[0], cur[1]


def _path_steps(ev: _MapEvaluator, axis, other, a, b):
    """Increments of x' and y' from a to b along axis (0 = x, 1 = y), the
    other coordinate held at other (broadcast against a), by Simpson with
    PATH_STEPS subintervals; dx' and dy' have coefficients f[axis] and
    f[2 + axis] there."""
    def integrand(t):
        o = np.asarray(other)[..., None]
        f = ev.form_at(t, o) if axis == 0 else ev.form_at(o, t)
        return f[[axis, 2 + axis]]
    return simpson_line(integrand, a, b, PATH_STEPS)


def primed_coordinates(sol: GridSolution, T: ReciprocalMap):
    """x', y' at every grid node of sol under T (_MapEvaluator.coordinates)."""
    return _MapEvaluator(T, sol.evaluator).coordinates(sol.grid)


# targets times grid nodes per block of the blocked nearest-node search
_GUESS_BLOCK = 1 << 13
# a search of at most this many targets times grid nodes runs blocked: on
# a 2-core x86 host the bucket search overtook it between 289 and 441
# targets on as many nodes
_GUESS_BLOCKED = 1 << 17
# targets per chunk of the bucket search
_BUCKET_CHUNK = 1 << 12
# the rounding slack of a bucket search, relative to the largest magnitude
# of a node coordinate or of the target's
_GUESS_SLACK = 1e-9


def _nearest_blocked(xp, yp, xt, yt):
    """Flat index of the node of (xp, yp) nearest each target (xt, yt), all
    flat arrays, by comparing every target with every node in blocks of
    _GUESS_BLOCK pairs; ties go to the lowest index (np.argmin)."""
    best = np.empty(xt.size, dtype=np.intp)
    rows = max(1, _GUESS_BLOCK // xp.size)
    for s in range(0, xt.size, rows):
        d = (xp - xt[s:s + rows, None]) ** 2 + \
            (yp - yt[s:s + rows, None]) ** 2
        best[s:s + rows] = np.argmin(d, axis=1)
    return best


def _ring(r):
    """Offsets (di, dj) of the buckets at Chebyshev distance r, or within
    distance 1 for r = 1."""
    if r == 1:
        k = np.arange(-1, 2)
        return np.repeat(k, 3), np.tile(k, 3)
    k = np.arange(-r, r + 1)
    side = np.arange(-r + 1, r)
    return (np.concatenate([k, k, np.full(side.size, -r),
                            np.full(side.size, r)]),
            np.concatenate([np.full(k.size, -r), np.full(k.size, r),
                            side, side]))


class _NodeBuckets:
    """Nearest-node search over flat arrays of nodes (xp, yp), binned in a
    uniform grid of square buckets over their bounding box, about one node
    per bucket and at most 2*isqrt(n) + 1 buckets along an axis for n
    nodes (Bentley, Weide and Yao, ACM TOMS 6(4), 1980).  The width and
    the height of the nodes' bounding box must be finite and nonzero."""

    def __init__(self, xp, yp):
        self.nodes = np.array([xp, yp])
        self.lo = self.nodes.min(axis=1)
        hi = self.nodes.max(axis=1)
        extent = hi - self.lo
        side = math.sqrt(extent[0]) * math.sqrt(extent[1]) / \
            math.sqrt(xp.size)
        self.shape = np.clip((extent / side).astype(np.intp), 1,
                             2 * math.isqrt(xp.size) + 1)
        self.step = extent / self.shape
        self.scale = float(np.max(np.abs([self.lo, hi])))
        bx, by = self._bucket(self.nodes)
        flat = bx * self.shape[1] + by
        self.order = np.argsort(flat, kind="stable")
        self.count = np.bincount(flat, minlength=self.shape.prod())
        self.start = np.cumsum(self.count) - self.count

    def _bucket(self, pts):
        """(x, y) bucket indices of the points, rows of pts, clipped to the
        grid of buckets."""
        b = np.floor((pts - self.lo[:, None]) / self.step[:, None])
        return np.clip(b, 0, self.shape[:, None] - 1).astype(np.intp)

    def nearest(self, xt, yt):
        """Flat index of the node nearest each target of the flat finite
        arrays (xt, yt), as _nearest_blocked finds it."""
        pts = np.array([xt, yt])
        best = np.empty(xt.size, dtype=np.intp)
        for s in range(0, xt.size, _BUCKET_CHUNK):
            best[s:s + _BUCKET_CHUNK] = self._chunk(
                pts[:, s:s + _BUCKET_CHUNK])
        return best

    def _chunk(self, pts):
        """nearest for the targets pts, rows x and y: rings of buckets
        outward from each target's bucket until the best squared distance
        found lies strictly inside the searched square, less a rounding
        slack; a square past every edge of the grid of buckets, reached
        within max(shape) rings, holds every node.  On ties the lowest
        node index wins."""
        nbx, nby = self.shape
        size = self.nodes.shape[1]
        bt = self._bucket(pts)
        # each target's distances to the low x, low y, high x and high y
        # edges of its bucket, and the number of buckets beyond each edge
        low = pts - (self.lo[:, None] + bt * self.step[:, None])
        edge = np.concatenate([low, self.step[:, None] - low])
        beyond = np.concatenate([bt, self.shape[:, None] - 1 - bt])
        step = np.concatenate([self.step, self.step])[:, None]
        slack = _GUESS_SLACK * np.maximum(self.scale,
                                          np.abs(pts).max(axis=0))
        best_d = np.full(pts.shape[1], np.inf)
        best = np.full(pts.shape[1], size, dtype=np.intp)
        todo = np.arange(pts.shape[1])
        for r in range(1, max(nbx, nby) + 1):
            di, dj = _ring(r)
            i = bt[0, todo, None] + di
            j = bt[1, todo, None] + dj
            ic, jc = np.clip(i, 0, nbx - 1), np.clip(j, 0, nby - 1)
            b = ic * nby + jc
            # a bucket off the grid holds no node
            n = np.where((ic == i) & (jc == j), self.count[b], 0)
            per_target = n.sum(axis=1)
            b, n = b.ravel(), n.ravel()
            # one entry per (target, node) pair, grouped by target
            owner = np.repeat(todo, per_target)
            if owner.size:
                node = self.order[np.repeat(self.start[b] - np.cumsum(n) + n,
                                            n) + np.arange(owner.size)]
                d = (self.nodes[0, node] - pts[0, owner]) ** 2 + \
                    (self.nodes[1, node] - pts[1, owner]) ** 2
                found = per_target > 0
                seg = (np.cumsum(per_target) - per_target)[found]
                who = todo[found]
                dmin = np.minimum.reduceat(d, seg)
                tied = d == np.repeat(dmin, per_target[found])
                imin = np.minimum.reduceat(np.where(tied, node, size), seg)
                better = (dmin < best_d[who]) | \
                    ((dmin == best_d[who]) & (imin < best[who]))
                best_d[who[better]] = dmin[better]
                best[who[better]] = imin[better]
            gap = np.where(beyond[:, todo] > r, edge[:, todo] + r * step,
                           np.inf).min(axis=0)
            room = gap - slack[todo]
            done = (room > 0) & (best_d[todo] < room * room)
            todo = todo[~done]
            if not todo.size:
                break
        return best


class TransformedFlow:
    """Analytic evaluator for the transformed solution: fields at primed
    points come from Newton inversion of the coordinate map through the
    original analytic flow; ev is the map's evaluator over sol's flow and
    xp, yp its primed coordinates of sol's grid, whose width and height
    must be finite and nonzero."""

    def __init__(self, sol: GridSolution, ev: _MapEvaluator, xp, yp):
        # isfinite first: np.ptp of a non-finite coordinate warns
        if not (np.isfinite(xp).all() and np.isfinite(yp).all()
                and np.ptp(xp) and np.ptp(yp)):
            raise NumericDomain("primed grid has no area")
        self.ev = ev
        self.xp = xp
        self.yp = yp
        g = sol.grid
        self._xs, self._ys = g.xs(), g.ys()

    @cached_property
    def _buckets(self):
        """The primed nodes in buckets."""
        return _NodeBuckets(self.xp.ravel(), self.yp.ravel())

    def _initial_guess(self, xt, yt):
        """For flat arrays of finite targets: the grid nodes nearest in
        primed coordinates, as original coordinates and (i, j) indices.  A
        search of at most _GUESS_BLOCKED pairs runs blocked, a larger one
        through the buckets."""
        xp, yp = self.xp.ravel(), self.yp.ravel()
        if xt.size * xp.size <= _GUESS_BLOCKED:
            best = _nearest_blocked(xp, yp, xt, yt)
        else:
            best = self._buckets.nearest(xt, yt)
        i, j = np.unravel_index(best, self.xp.shape)
        return self._xs[i], self._ys[j], (i, j)

    def _forward(self, x, y, node):
        """Coordinate images of flat arrays of points by local Simpson
        correction from known nodes: along x at the node's y, then along
        y at x."""
        i, j = node
        x0, y0 = self._xs[i], self._ys[j]
        along_x = _path_steps(self.ev, 0, y0, x0, x)
        along_y = _path_steps(self.ev, 1, x, y0, y)
        return (self.xp[i, j] + along_x[0] + along_y[0],
                self.yp[i, j] + along_x[1] + along_y[1])

    def invert_point(self, xt, yt):
        """Original coordinates of primed points (scalars or arrays that
        broadcast together) by Newton iteration, all points at once.  A
        point stops at the first iterate whose residual |rx| + |ry| is
        below NEWTON_TOL.  The first residual is read from the start's
        primed node: _forward at a node gives its xp, yp bit for bit (its
        paths have length zero, and xp is never -0.0, since the running
        sums of coordinates start from +0.0)."""
        xt, yt = np.broadcast_arrays(np.asarray(xt, dtype=float),
                                     np.asarray(yt, dtype=float))
        shape = xt.shape
        xt, yt = xt.ravel(), yt.ravel()
        if not (np.isfinite(xt).all() and np.isfinite(yt).all()):
            raise NumericDomain("primed point is not finite")
        x, y, (ni, nj) = self._initial_guess(xt, yt)
        active = np.arange(xt.size)
        # every point starts at a grid node, whose image is known
        fx, fy = self.xp[ni, nj], self.yp[ni, nj]
        for it in range(NEWTON_MAX_ITER):
            if it:
                fx, fy = self._forward(x[active], y[active],
                                       (ni[active], nj[active]))
            rx, ry = fx - xt[active], fy - yt[active]
            going = ~(abs(rx) + abs(ry) < NEWTON_TOL)
            active, rx, ry = active[going], rx[going], ry[going]
            if not active.size:
                break
            j11, j12, j21, j22 = self.ev.form_at(x[active], y[active])
            det = j11 * j22 - j12 * j21
            if not np.all(det):
                k = active[np.argmin(det != 0)]
                raise NewtonDivergence("singular Jacobian at (%g, %g)"
                                       % (x[k], y[k]))
            x[active] -= (j22 * rx - j12 * ry) / det
            y[active] -= (-j21 * rx + j11 * ry) / det
        if active.size:
            k = active[0]
            raise NewtonDivergence("no convergence at (%g, %g)"
                                   % (xt[k], yt[k]))
        # [()] turns a 0-d result into a scalar
        return x.reshape(shape)[()], y.reshape(shape)[()]

    def fields(self, xt, yt):
        x, y = self.invert_point(xt, yt)
        return tuple(self.ev.fields_at(x, y))


def transform_solution(sol: GridSolution, T: ReciprocalMap,
                       margin_cells: int = 1,
                       target_grid: GridSpec | None = None) -> GridSolution:
    """Transform an analytic grid solution: primed fields through the field
    maps, primed coordinates by path integration, output resampled on a
    rectangular primed grid lying inside the image, margin_cells cells in
    from its edges.

    Passing target_grid pins the output grid (e.g. for refinement studies
    comparing residuals over an identical primed region)."""
    g = sol.grid
    # fd_residuals needs 3 nodes, and the margins must leave some width
    need = 3 if target_grid is not None else max(3, 2 * margin_cells + 2)
    if min(g.nx, g.ny) < need:
        raise InvalidParams("need at least %d nodes per direction" % need)
    return _transform(sol, _MapEvaluator(T, sol.evaluator), margin_cells,
                      target_grid)


def _transform(sol: GridSolution, ev: _MapEvaluator, margin_cells: int,
               target_grid: GridSpec | None) -> GridSolution:
    """transform_solution past its node count check, through ev, the
    map's evaluator over sol's flow."""
    g = sol.grid
    xp, yp = ev.coordinates(g)
    if target_grid is not None:
        pg = target_grid
    else:
        lox = np.max(xp[0, :]) if xp[0, 0] < xp[-1, 0] else np.max(xp[-1, :])
        hix = np.min(xp[-1, :]) if xp[0, 0] < xp[-1, 0] else np.min(xp[0, :])
        loy = np.max(yp[:, 0]) if yp[0, 0] < yp[0, -1] else np.max(yp[:, -1])
        hiy = np.min(yp[:, -1]) if yp[0, 0] < yp[0, -1] else np.min(yp[:, 0])
        if not (hix > lox and hiy > loy):
            raise NumericDomain("image of the grid is degenerate")
        hxp = (hix - lox) / (g.nx - 1)
        hyp = (hiy - loy) / (g.ny - 1)
        lox += margin_cells * hxp
        hix -= margin_cells * hxp
        loy += margin_cells * hyp
        hiy -= margin_cells * hyp
        hxp = (hix - lox) / (g.nx - 1)
        hyp = (hiy - loy) / (g.ny - 1)
        pg = GridSpec(float(lox), float(loy), float(hxp), float(hyp),
                      g.nx, g.ny)
    return make_solution(TransformedFlow(sol, ev, xp, yp), pg)


def transform_convergence_ratios(flow, T: ReciprocalMap,
                                 grid: GridSpec) -> dict:
    """Max-norm FD residual ratios of the transformed solution between a
    grid and its refinement, over an identical primed region.  Equations
    whose residuals sit below RESIDUAL_FLOOR on both grids are reported
    with ratio None (already converged)."""
    s1 = make_solution(flow, grid)
    out1 = transform_solution(s1, T)
    r1 = fd_residuals(out1)
    # s2 samples the same flow on more nodes: out1's evaluator serves it
    s2 = make_solution(flow, grid.refined())
    out2 = _transform(s2, out1.evaluator.ev, 1, out1.grid.refined())
    r2 = fd_residuals(out2)
    out = {}
    for k in r1:
        if r1[k] < RESIDUAL_FLOOR and r2[k] < RESIDUAL_FLOOR:
            out[k] = None
        else:
            out[k] = r1[k] / r2[k] if r2[k] else float("inf")
    return out


def loop_closedness(sol: GridSolution, T: ReciprocalMap, loop) -> float:
    """|loop integral of dx'| + |loop integral of dy'| along a closed
    polyline, by composite Simpson with LOOP_STEPS subintervals on each
    segment with analytic fields."""
    pts = [tuple(map(float, p)) for p in loop]
    if pts[0] != pts[-1]:
        raise InvalidParams("loop is not closed")
    ev = _MapEvaluator(T, sol.evaluator)
    # one row per segment
    start = np.array(pts[:-1])[:, :, None]
    delta = np.array(pts[1:])[:, :, None] - start

    def integrand(t):
        f = ev.form_at(start[:, 0] + t * delta[:, 0],
                       start[:, 1] + t * delta[:, 1])
        return np.array([f[0] * delta[:, 0] + f[1] * delta[:, 1],
                         f[2] * delta[:, 0] + f[3] * delta[:, 1]])

    nseg = len(pts) - 1
    seg = simpson_line(integrand, np.zeros(nseg), np.ones(nseg), LOOP_STEPS)
    # the segment integrals are added in loop order
    return float(abs(sum(seg[0], 0.0)) + abs(sum(seg[1], 0.0)))

