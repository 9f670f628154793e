"""Numeric transformation of exact solutions on structured grids.

Transformed coordinates are reconstructed by composite-Simpson path
integration of the transformation differentials along axis-aligned paths;
closedness is probed by loop integrals; results are re-verified by central
finite-difference residuals of the governing system on the primed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gasdyn import InvalidParams
from .symkernel.errors import SymkernelError
from .transforms.maps import ReciprocalMap, invert


class GridTooSmall(SymkernelError):
    pass


class DomainViolation(SymkernelError):
    pass


class NewtonDivergence(SymkernelError):
    pass


FIELD_ORDER = ("rho", "u", "v", "p", "S")


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
    evaluator: object = None     # fields(x, y) -> (rho, u, v, p, S)
    provenance: str = ""

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
    family: str = "constant"

    def fields(self, x, y):
        return (self.rho0, self.u0, self.v0, self.p0, self.S0)


@dataclass(frozen=True)
class ShearFlow:
    """u = u(y), v = 0, p constant, rho = rho(y), S = S(y)."""
    u_fn: object
    rho_fn: object
    S_fn: object
    p0: float = 1.0
    family: str = "shear"

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
    family: str = "vortex"

    def fields(self, x, y):
        r2 = x * x + y * y
        r = math.sqrt(r2)
        w_over_r = self.w0 * r ** (self.m - 1)
        p = self.p0 + self.rho0 * self.w0 ** 2 * r ** (2 * self.m) \
            / (2 * self.m)
        return (self.rho0, -w_over_r * y, w_over_r * x, p, self.s0 + r2)


def make_solution(flow, grid: GridSpec) -> GridSolution:
    """Sample an analytic flow; the analytic residuals vanish identically,
    so the discrete residuals measure only the stencil error."""
    if getattr(flow, "family", "") == "vortex":
        rmin = min(math.hypot(x, y) for x in (grid.x0, grid.x0 + grid.hx * (grid.nx - 1))
                   for y in (grid.y0, grid.y0 + grid.hy * (grid.ny - 1)))
        if grid.x0 <= 0.0 <= grid.x0 + grid.hx * (grid.nx - 1) and \
           grid.y0 <= 0.0 <= grid.y0 + grid.hy * (grid.ny - 1):
            raise InvalidParams("vortex grid must exclude the origin")
        if rmin < 1e-6:
            raise InvalidParams("vortex grid touches r = 0")
    arrays = [np.empty((grid.nx, grid.ny)) for _ in range(5)]
    xs, ys = grid.xs(), grid.ys()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            vals = flow.fields(float(x), float(y))
            for k in range(5):
                arrays[k][i, j] = vals[k]
    if np.any(arrays[0] <= 0):
        raise InvalidParams("density must stay positive on the grid")
    return GridSolution(grid, *arrays, evaluator=flow,
                        provenance=getattr(flow, "family", "analytic"))


# --- finite-difference residuals ------------------------------------------------


def fd_residuals(sol: GridSolution) -> dict:
    """Max-norm central-difference residuals at interior nodes."""
    g = sol.grid
    if g.nx < 3 or g.ny < 3:
        raise GridTooSmall("need at least 3 nodes per direction")
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
    out = {}
    for name, arr in (("mass", F1), ("momentum-x", F2),
                      ("momentum-y", F3), ("entropy", F4)):
        out[name] = float(np.max(np.abs(arr))) if arr.size else 0.0
    return out


# --- quadrature -----------------------------------------------------------------


def simpson_line(fn, a: float, b: float, n: int) -> float:
    """Composite Simpson with n (even) subintervals."""
    if n % 2:
        n += 1
    if b == a:
        return 0.0
    h = (b - a) / n
    total = fn(a) + fn(b)
    for k in range(1, n):
        total += fn(a + k * h) * (4 if k % 2 else 2)
    return total * h / 3.0


class _MapEvaluator:
    """Float evaluation of a reciprocal map over an analytic flow."""

    def __init__(self, T: ReciprocalMap, flow):
        self.T = T
        self.flow = flow
        self._fields = [T.R, T.U, T.V, T.P, T.H]
        self._form = [T.f[0][0], T.f[0][1], T.f[1][0], T.f[1][1]]

    def _assign(self, x, y):
        vals = self.flow.fields(x, y)
        return dict(zip(FIELD_ORDER, vals))

    def form_at(self, x, y):
        a = self._assign(x, y)
        return [e.eval_numeric(a) for e in self._form]

    def fields_at(self, x, y):
        a = self._assign(x, y)
        return [e.eval_numeric(a) for e in self._fields]

    def check_domain(self, xs, ys, floor=1e-9):
        from .symkernel.expr import Expr
        ctx = self.T.ctx
        one = Expr.const(ctx, 1)
        dens = [Expr(ctx, c.den, one.den)
                for c in self.T.components() if not c.is_polynomial()]
        for x in xs:
            for y in ys:
                a = self._assign(float(x), float(y))
                for d in dens:
                    if abs(d.eval_numeric(a)) < floor:
                        raise DomainViolation(
                            "map denominator vanishes near (%g, %g)" % (x, y))


def primed_coordinates(sol: GridSolution, T: ReciprocalMap,
                       quad_factor: int = 8, path: str = "xy"):
    """x', y' at every grid node by Simpson path integration from the grid
    origin (anchored to zero), along x first then y, or y first."""
    g = sol.grid
    ev = _MapEvaluator(T, sol.evaluator)
    xs, ys = g.xs(), g.ys()
    ev.check_domain(xs, ys)
    nseg = max(2, quad_factor)
    first = {"xy": 0, "yx": 1}.get(path)
    if first is None:
        raise ValueError("path must be 'xy' or 'yx'")
    outer, inner = (xs, ys) if first == 0 else (ys, xs)

    def step(axis, other, a, b):
        """Increments of x' and y' from a to b along axis (0 = x, 1 = y),
        the other coordinate held at other; dx' and dy' have coefficients
        f[axis] and f[2 + axis] there."""
        def at(t):
            return ev.form_at(t, other) if axis == 0 else \
                ev.form_at(other, t)
        return (simpson_line(lambda t: at(t)[axis], a, b, nseg),
                simpson_line(lambda t: at(t)[2 + axis], a, b, nseg))

    # along the grid edge on the first axis, then across the second axis
    xp = np.zeros((g.nx, g.ny))
    yp = np.zeros((g.nx, g.ny))
    edge_x = edge_y = 0.0
    for i in range(len(outer)):
        if i:
            dx, dy = step(first, inner[0], outer[i - 1], outer[i])
            edge_x, edge_y = edge_x + dx, edge_y + dy
        cur_x, cur_y = edge_x, edge_y
        for j in range(len(inner)):
            if j:
                dx, dy = step(1 - first, outer[i], inner[j - 1], inner[j])
                cur_x, cur_y = cur_x + dx, cur_y + dy
            node = (i, j) if first == 0 else (j, i)
            xp[node] = cur_x
            yp[node] = cur_y
    return xp, yp


class TransformedFlow:
    """Analytic evaluator for the transformed solution: fields at a primed
    point come from Newton inversion of the coordinate map through the
    original analytic flow."""

    family = "transformed"

    def __init__(self, sol: GridSolution, T: ReciprocalMap, xp, yp,
                 tol: float = 1e-12, max_iter: int = 50):
        self.sol = sol
        self.T = T
        self.ev = _MapEvaluator(T, sol.evaluator)
        self.xp = xp
        self.yp = yp
        self.tol = tol
        self.max_iter = max_iter
        g = sol.grid
        self._xs, self._ys = g.xs(), g.ys()

    def _initial_guess(self, xt, yt):
        d = (self.xp - xt) ** 2 + (self.yp - yt) ** 2
        i, j = np.unravel_index(np.argmin(d), d.shape)
        return float(self._xs[i]), float(self._ys[j]), (int(i), int(j))

    def _forward(self, x, y, node):
        """Coordinate images by local Simpson correction from a known node."""
        i, j = node
        x0, y0 = float(self._xs[i]), float(self._ys[j])
        xpv = self.xp[i, j]
        ypv = self.yp[i, j]
        n = 8
        xpv += simpson_line(lambda t: self.ev.form_at(t, y0)[0], x0, x, n)
        ypv += simpson_line(lambda t: self.ev.form_at(t, y0)[2], x0, x, n)
        xpv += simpson_line(lambda t: self.ev.form_at(x, t)[1], y0, y, n)
        ypv += simpson_line(lambda t: self.ev.form_at(x, t)[3], y0, y, n)
        return xpv, ypv

    def invert_point(self, xt, yt):
        x, y, node = self._initial_guess(xt, yt)
        for _ in range(self.max_iter):
            fx, fy = self._forward(x, y, node)
            rx, ry = fx - xt, fy - yt
            if abs(rx) + abs(ry) < self.tol:
                return x, y
            j11, j12, j21, j22 = self.ev.form_at(x, y)
            det = j11 * j22 - j12 * j21
            if det == 0:
                raise NewtonDivergence("singular Jacobian at (%g, %g)" % (x, y))
            x -= (j22 * rx - j12 * ry) / det
            y -= (-j21 * rx + j11 * ry) / det
        raise NewtonDivergence("no convergence at (%g, %g)" % (xt, yt))

    def fields(self, xt, yt):
        x, y = self.invert_point(xt, yt)
        return tuple(self.ev.fields_at(x, y))


def transform_solution(sol: GridSolution, T: ReciprocalMap,
                       quad_factor: int = 8, path: str = "xy",
                       margin_cells: int = 1,
                       target_grid: GridSpec | None = None) -> GridSolution:
    """Transform an analytic grid solution: primed fields through the field
    maps, primed coordinates by path integration, output resampled on a
    rectangular primed grid lying inside the image.

    Passing target_grid pins the output grid (e.g. for refinement studies
    comparing residuals over an identical primed region)."""
    if sol.evaluator is None:
        raise InvalidParams("solution carries no analytic evaluator")
    g = sol.grid
    if g.nx < 3 or g.ny < 3:
        raise GridTooSmall("need at least 3 nodes per direction")
    xp, yp = primed_coordinates(sol, T, quad_factor=quad_factor, path=path)
    tf = TransformedFlow(sol, T, xp, yp)
    if target_grid is not None:
        pg = target_grid
    else:
        nxp, nyp = g.nx, g.ny
        lox = np.max(xp[0, :]) if xp[0, 0] < xp[-1, 0] else np.max(xp[-1, :])
        hix = np.min(xp[-1, :]) if xp[0, 0] < xp[-1, 0] else np.min(xp[0, :])
        loy = np.max(yp[:, 0]) if yp[0, 0] < yp[0, -1] else np.max(yp[:, -1])
        hiy = np.min(yp[:, -1]) if yp[0, 0] < yp[0, -1] else np.min(yp[:, 0])
        if not (hix > lox and hiy > loy):
            raise DomainViolation("image of the grid is degenerate")
        hxp = (hix - lox) / (nxp - 1)
        hyp = (hiy - loy) / (nyp - 1)
        lox += margin_cells * hxp
        hix -= margin_cells * hxp
        loy += margin_cells * hyp
        hiy -= margin_cells * hyp
        hxp = (hix - lox) / (nxp - 1)
        hyp = (hiy - loy) / (nyp - 1)
        pg = GridSpec(float(lox), float(loy), float(hxp), float(hyp),
                      nxp, nyp)
    out = make_solution(tf, pg)
    out.provenance = "%s<-%s" % (T.name, sol.provenance)
    return out


def transform_convergence_ratios(flow, T: ReciprocalMap, grid: GridSpec,
                                 quad_factor: int = 8,
                                 floor: float = 1e-13) -> dict:
    """Max-norm FD residual ratios of the transformed solution between a
    grid and its refinement, over an identical primed region.  Equations
    whose residuals sit at the rounding floor on both grids are reported
    with ratio None (already converged)."""
    s1 = make_solution(flow, grid)
    out1 = transform_solution(s1, T, quad_factor=quad_factor)
    r1 = fd_residuals(out1)
    s2 = make_solution(flow, grid.refined())
    out2 = transform_solution(s2, T, quad_factor=quad_factor,
                              target_grid=out1.grid.refined())
    r2 = fd_residuals(out2)
    out = {}
    for k in r1:
        if r1[k] < floor and r2[k] < floor:
            out[k] = None
        else:
            out[k] = r1[k] / r2[k] if r2[k] else float("inf")
    return out


def transform_roundtrip_error(sol: GridSolution, T: ReciprocalMap,
                              quad_factor: int = 8) -> float:
    """Transform with T then with its inverse; compare the recovered fields
    with the original analytic flow at the corresponding points.

    The roundtrip coordinates are the original ones translated so that the
    second anchor sits at zero; the anchor's preimage locates them."""
    first = transform_solution(sol, T, quad_factor=quad_factor)
    second = transform_solution(first, invert(T), quad_factor=quad_factor)
    tf1 = first.evaluator
    xa, ya = tf1.invert_point(first.grid.x0, first.grid.y0)
    worst = 0.0
    g = second.grid
    for i, x in enumerate(g.xs()):
        for j, y in enumerate(g.ys()):
            ref = sol.evaluator.fields(float(x) + xa, float(y) + ya)
            got = [a[i, j] for a in second.arrays()]
            worst = max(worst, max(abs(r - q) for r, q in zip(ref, got)))
    return worst


def loop_closedness(sol: GridSolution, T: ReciprocalMap, loop,
                    n_per_segment: int = 256) -> float:
    """|loop integral of dx'| + |loop integral of dy'| along a closed
    polyline, by composite Simpson on each segment with analytic fields."""
    if sol.evaluator is None:
        raise InvalidParams("solution carries no analytic evaluator")
    pts = [tuple(map(float, p)) for p in loop]
    if pts[0] != pts[-1]:
        raise DomainViolation("loop is not closed")
    ev = _MapEvaluator(T, sol.evaluator)
    tot_x = 0.0
    tot_y = 0.0
    for (xa, ya), (xb, yb) in zip(pts[:-1], pts[1:]):
        dx, dy = xb - xa, yb - ya

        def fx(t):
            f = ev.form_at(xa + t * dx, ya + t * dy)
            return f[0] * dx + f[1] * dy

        def fy(t):
            f = ev.form_at(xa + t * dx, ya + t * dy)
            return f[2] * dx + f[3] * dy

        tot_x += simpson_line(fx, 0.0, 1.0, n_per_segment)
        tot_y += simpson_line(fy, 0.0, 1.0, n_per_segment)
    return abs(tot_x) + abs(tot_y)


def unit_square_loop():
    return [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
