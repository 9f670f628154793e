"""Grid sampling, finite-difference residuals, numeric transformation."""

import numpy as np
import pytest

from recipgas import numerics
from recipgas.gasdyn import standard_context
from recipgas.numerics import (ConstantFlow, GridSpec, InvalidParams,
                               NewtonDivergence, ShearFlow, VortexFlow,
                               fd_residuals, loop_closedness,
                               make_solution, primed_coordinates,
                               transform_convergence_ratios,
                               transform_solution)
from recipgas.symkernel import NumericDomain, parse
from recipgas.transforms import (bateman, bateman_simplified, identity_map,
                                 invert, reciprocal_map)


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


@pytest.fixture(scope="module")
def shear_solution():
    return make_solution(ShearFlow.example(), GridSpec(0, 0, 1 / 16,
                                                       1 / 16, 17, 17))


def test_constant_solution_residuals():
    sol = make_solution(ConstantFlow(), GridSpec(0, 0, 0.05, 0.05, 21, 21))
    assert max(fd_residuals(sol).values()) < 1e-12


def test_shear_solution_residuals(shear_solution):
    # the shear profile is stencil-exact: x-differences vanish node-wise
    # and v = 0 kills every remaining term
    assert max(fd_residuals(shear_solution).values()) < 1e-12


def test_vortex_second_order():
    vx = VortexFlow(w0=1, m=2)
    g = GridSpec(0.5, 0.3, 1 / 20, 1 / 20, 17, 17)
    r1 = fd_residuals(make_solution(vx, g))
    r2 = fd_residuals(make_solution(vx, g.refined()))
    for k in r1:
        if r1[k] > 1e-13:
            assert 3.5 <= r1[k] / r2[k] <= 4.5


def test_rigid_vortex_is_stencil_exact():
    sol = make_solution(VortexFlow(w0=1, m=1),
                        GridSpec(0.5, 0.3, 0.05, 0.05, 13, 13))
    assert max(fd_residuals(sol).values()) < 1e-12


def test_grid_guards(ctx):
    with pytest.raises(InvalidParams, match="need at least 3 nodes"):
        fd_residuals(make_solution(ConstantFlow(),
                                   GridSpec(0, 0, 0.1, 0.1, 2, 3)))
    # a 1-cell margin on each side leaves a 3-node grid no width
    T = bateman_simplified(ctx, 1, 0, entropy="identity")
    narrow = make_solution(ConstantFlow(), GridSpec(0, 0, 0.5, 0.5, 4, 3))
    with pytest.raises(InvalidParams, match="need at least 4 nodes"):
        transform_solution(narrow, T)
    assert transform_solution(narrow, T, margin_cells=0).grid.ny == 3
    wide = make_solution(ConstantFlow(), GridSpec(0, 0, 0.5, 0.5, 4, 4))
    assert max(fd_residuals(transform_solution(wide, T)).values()) < 1e-12
    with pytest.raises(InvalidParams):
        make_solution(VortexFlow(), GridSpec(-0.5, -0.5, 0.25, 0.25, 5, 5))
    # no corner is near r = 0, but the edge y = 1e-9 passes it; the
    # second grid runs from 1 down to -1 with a node at the origin
    for grid in (GridSpec(-1.0, 1e-9, 1.0, 1.0, 3, 2),
                 GridSpec(1.0, 1.0, -1.0, -1.0, 3, 3)):
        with pytest.raises(InvalidParams, match="r = 0"):
            make_solution(VortexFlow(w0=1, m=-1), grid)
    # the vortex grids of criterion 9
    vortex = GridSpec(0.5, 0.3, 1 / 24, 1 / 24, 13, 13)
    for grid in (vortex, vortex.refined()):
        assert make_solution(VortexFlow(w0=1, m=1), grid).grid == grid
    with pytest.raises(InvalidParams):
        make_solution(ConstantFlow(rho0=-1.0),
                      GridSpec(0, 0, 0.1, 0.1, 4, 4))


@pytest.mark.parametrize("grid", [GridSpec(0, 0, 0.0, 0.1, 3, 3),
                                  GridSpec(0, 0, 0.1, 0.0, 3, 3)],
                         ids=["hx", "hy"])
def test_zero_spacing_is_refused(grid):
    # fd_residuals would divide by the zero spacing
    with pytest.raises(InvalidParams, match="spacing must be nonzero"):
        make_solution(ShearFlow.example(), grid)


def test_perturbed_solution_fails():
    sol = make_solution(ShearFlow.example(),
                        GridSpec(0, 0, 1 / 16, 1 / 16, 17, 17))
    rng = np.random.default_rng(12345)
    sol.p = sol.p + 0.01 * rng.standard_normal(sol.p.shape)
    assert max(fd_residuals(sol).values()) > 1e-2


def test_constant_under_simplified_map(ctx):
    T = bateman_simplified(ctx, 1, 0, entropy="identity")
    grid = GridSpec(0, 0, 0.05, 0.05, 21, 21)
    sol = make_solution(ConstantFlow(u0=1, v0=0, rho0=1, p0=1), grid)
    out = transform_solution(sol, T, margin_cells=0)
    assert abs(out.u[4, 9] - 1.0) < 1e-12
    assert abs(out.v[4, 9]) < 1e-12
    assert abs(out.p[4, 9] + 1.0) < 1e-12
    assert abs(out.rho[4, 9] - 0.5) < 1e-12
    xp, yp = primed_coordinates(sol, T)
    xs, ys = grid.xs(), grid.ys()
    assert np.max(np.abs(xp - xs[:, None])) < 1e-12
    assert np.max(np.abs(yp - 2 * ys[None, :])) < 1e-12


def test_identity_transform_is_bit_identical(shear_solution, ctx):
    out = transform_solution(shear_solution, identity_map(ctx),
                             margin_cells=0)
    for a, b in zip(out.arrays(), shear_solution.arrays()):
        assert np.array_equal(a, b)


def test_shear_coordinate_maps(ctx, shear_solution):
    # x' = p0 x; y' integrates p0 + rho(y) u(y)^2
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    xp, yp = primed_coordinates(shear_solution, T)
    xs = shear_solution.grid.xs()
    assert np.max(np.abs(xp - xs[:, None])) < 1e-12

    def exact_yprime(y):
        # integral of 1 + (1 + s^2/2)(1 + s^2)^2 from 0 to y
        return (2 * y + y ** 3 * 5 / 6 + y ** 5 * 2 / 5 + y ** 7 / 14)

    ys = shear_solution.grid.ys()
    want = np.array([exact_yprime(y) for y in ys])
    assert np.max(np.abs(yp - want[None, :])) < 1e-8


def test_transformed_shear_is_stencil_exact(ctx, shear_solution):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    out = transform_solution(shear_solution, T)
    assert max(fd_residuals(out).values()) < 1e-12


def test_vortex_transform_second_order(ctx):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    ratios = transform_convergence_ratios(
        VortexFlow(w0=1, m=1), T, GridSpec(0.5, 0.3, 1 / 24, 1 / 24, 13, 13))
    for k, v in ratios.items():
        assert v is not None and 3.5 <= v <= 4.5, (k, v)


def _entry_points(T):
    flow, grid = VortexFlow(w0=1, m=1), GridSpec(0.5, 0.3, 1 / 8, 1 / 8, 5, 5)
    sol = make_solution(flow, grid)
    return {
        "loop_closedness":
            lambda: loop_closedness(sol, T, grid.boundary_loop()),
        "primed_coordinates": lambda: primed_coordinates(sol, T),
        "transform_solution": lambda: transform_solution(sol, T),
        "transform_convergence_ratios":
            lambda: transform_convergence_ratios(flow, T, grid),
    }


# a map's float evaluators compile on first use: closedness needs the form
# matrix, coordinates the denominators too, transforms the fields as well
@pytest.mark.parametrize("entry, compiles", [
    ("loop_closedness", 1),
    ("primed_coordinates", 2),
    ("transform_solution", 3),
    ("transform_convergence_ratios", 3),
])
def test_compiles_per_entry_point(ctx, monkeypatch, entry, compiles):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    calls = []
    compile_exprs = numerics.compile_exprs

    def counted(exprs):
        calls.append(None)
        return compile_exprs(exprs)

    monkeypatch.setattr(numerics, "compile_exprs", counted)
    _entry_points(T)[entry]()
    assert len(calls) == compiles


def test_ratio_study_shares_one_evaluator(ctx):
    # both grids sample one flow, so one evaluator serves both transforms
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    flow, grid = VortexFlow(w0=1, m=1), GridSpec(0.5, 0.3, 1 / 8, 1 / 8, 5, 5)
    out1 = transform_solution(make_solution(flow, grid), T)
    out2 = transform_solution(make_solution(flow, grid.refined()), T,
                              target_grid=out1.grid.refined())
    r1, r2 = fd_residuals(out1), fd_residuals(out2)
    ratios = transform_convergence_ratios(flow, T, grid)
    assert ratios == {k: r1[k] / r2[k] for k in r1}


def test_domain_violation(ctx):
    # p + b2 vanishes on the grid for b2 = -1 at p = 1
    T = bateman(ctx, 1, -1, 1, 0, entropy="identity")
    sol = make_solution(ConstantFlow(p0=1.0),
                        GridSpec(0, 0, 0.1, 0.1, 5, 5))
    with pytest.raises(NumericDomain, match="map denominator vanishes"):
        transform_solution(sol, T)


def test_loop_closedness(ctx, shear_solution):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    square = shear_solution.grid.boundary_loop()
    assert square == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    assert loop_closedness(shear_solution, T, square) < 1e-8
    const = make_solution(ConstantFlow(), GridSpec(0, 0, 0.1, 0.1, 11, 11))
    assert loop_closedness(const, T, const.grid.boundary_loop()) < 1e-12
    f = ((T.f[0][0] + parse(ctx, "rho"), T.f[0][1]),
         (T.f[1][0], T.f[1][1]))
    broken = reciprocal_map(ctx, T.R, T.U, T.V, T.P, T.H, f, name="broken")
    assert loop_closedness(shear_solution, broken, square) > 1e-3


def test_loop_must_be_closed(ctx, shear_solution):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    with pytest.raises(InvalidParams, match="loop is not closed"):
        loop_closedness(shear_solution, T, [(0, 0), (1, 0), (1, 1)])


def transform_roundtrip_error(sol, T) -> float:
    """Transform with T then with its inverse; compare the recovered fields
    with the original analytic flow at the corresponding points.

    The roundtrip coordinates are the original ones translated so that the
    second anchor sits at zero; the anchor's preimage locates them."""
    first = transform_solution(sol, T)
    second = transform_solution(first, invert(T))
    xa, ya = first.evaluator.invert_point(first.grid.x0, first.grid.y0)
    X, Y = np.meshgrid(second.grid.xs(), second.grid.ys(), indexing="ij")
    ref = sol.evaluator.fields(X + xa, Y + ya)
    return max(float(np.max(np.abs(r - q)))
               for r, q in zip(ref, second.arrays()))


def test_roundtrip_recovers_fields(ctx):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    sol = make_solution(ShearFlow.example(),
                        GridSpec(0, 0, 1 / 8, 1 / 8, 9, 9))
    assert transform_roundtrip_error(sol, T) < 1e-8


def test_batched_inversion_matches_single_points(ctx):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    sol = make_solution(VortexFlow(w0=1, m=1),
                        GridSpec(0.5, 0.3, 1 / 16, 1 / 16, 9, 9))
    tf = transform_solution(sol, T).evaluator
    xp, yp = tf.xp, tf.yp
    rng = np.random.default_rng(3)
    xt = rng.uniform(xp.min(), xp.max(), 12)
    yt = rng.uniform(yp.min(), yp.max(), 12)
    x, y = tf.invert_point(xt, yt)
    for k in range(len(xt)):
        xk, yk = tf.invert_point(xt[k], yt[k])
        assert (x[k], y[k]) == (xk, yk)
    rows = tf.fields(xt.reshape(3, 4), yt.reshape(3, 4))
    for got, want in zip(rows, tf.fields(xt, yt)):
        assert np.array_equal(got.ravel(), want)


def test_newton_iteration_limit(ctx, monkeypatch):
    T = bateman(ctx, 1, 0, 1, 0, entropy="identity")
    sol = make_solution(VortexFlow(w0=1, m=1),
                        GridSpec(0.5, 0.3, 1 / 16, 1 / 16, 9, 9))
    tf = transform_solution(sol, T).evaluator
    xp, yp = tf.xp, tf.yp
    monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonDivergence):
        tf.invert_point(0.5 * (xp[0, 0] + xp[1, 1]),
                        0.5 * (yp[0, 0] + yp[1, 1]))
