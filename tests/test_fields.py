"""Grid, stencil, quadrature, and interpolation primitives."""

import numpy as np
import pytest

from aclab import (Grid, PERIODIC, RegionError, ScalarField, VectorField,
                   ZERO_FLUX, interpolate, line_sample, radial_derivative)
from aclab.fields import (_central_difference, ball_integrals,
                          disc_integral, gradient, integrate, laplacian,
                          restrict_to_plane)


def grid2d(n=65, boundary=ZERO_FLUX):
    return Grid(extent=(2.0, 2.0), points=(n, n), boundary=boundary,
                origin=(-1.0, -1.0))


# ---------------------------------------------------------------- grid

def test_spacing_conventions():
    gz = Grid(extent=(1.0,), points=(11,), boundary=ZERO_FLUX)
    assert gz.h == pytest.approx(0.1)
    gp = Grid(extent=(1.0,), points=(10,), boundary=PERIODIC)
    assert gp.h == pytest.approx(0.1)


def test_grid_rejects_anisotropy_and_small_axes():
    with pytest.raises(ValueError, match="anisotropic"):
        Grid(extent=(1.0, 2.0), points=(11, 11))
    with pytest.raises(ValueError, match="at least 8"):
        Grid(extent=(1.0,), points=(4,))
    with pytest.raises(ValueError):
        Grid(extent=(1.0, 1.0, 1.0, 1.0), points=(9, 9, 9, 9))


@pytest.mark.parametrize("kwargs,field", [
    ({"extent": (np.inf,), "points": (65,)}, "extent"),
    ({"extent": (1.0,), "points": (65.5,)}, "points"),
    ({"extent": 1.0, "points": (65,)}, "extent"),
    ({"extent": (1.0,), "points": 65}, "points"),
    ({"extent": (2.0,), "points": (65,), "origin": (np.inf,)}, "origin"),
    ({"extent": (2.0,), "points": (65,), "origin": (np.nan,)}, "origin")])
def test_grid_refuses_bad_values_by_name(kwargs, field):
    with pytest.raises(ValueError, match=field):
        Grid(**kwargs)


def test_node_weights_values_and_grid_equality():
    g = grid2d(9)
    w = g.node_weights()
    assert w.shape == g.shape
    assert w[0, 0] == 0.25 * g.h ** 2 and w[0, 1] == 0.5 * g.h ** 2
    assert w[1, 1] == g.h ** 2
    assert np.array_equal(g.node_weights(slice(2, 5)), w[2:5])
    periodic = grid2d(9, PERIODIC)
    assert np.all(periodic.node_weights() == periodic.h ** 2)
    # the grid holds no weights: asking for them leaves equality and hashing
    fresh = grid2d(9)
    assert fresh == g and hash(fresh) == hash(g)
    assert vars(fresh).keys() == vars(g).keys()


def test_field_validation():
    g = grid2d(9)
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g, np.zeros((3, 3)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ScalarField(g, bad)
    frozen = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        frozen.values[0, 0] = 1.0


@pytest.mark.parametrize("cls, lead", [(ScalarField, ()), (VectorField, (2,))])
def test_public_fields_copy_and_every_field_is_checked(cls, lead):
    # the public constructors copy the caller's array; the package-internal
    # path wraps a fresh array without a copy; both check shape and values
    g = grid2d(9)
    mine = np.ones(lead + g.shape)
    field = cls(g, mine)
    mine[..., 0, 0] = 5.0
    assert np.all(field.values == 1.0) and mine.flags.writeable
    fresh = np.ones(lead + g.shape)
    adopted = cls._adopt(g, fresh)
    assert adopted.values is fresh and not fresh.flags.writeable
    assert type(adopted) is cls and adopted.grid is g
    for make in (cls, cls._adopt):
        for bad in (np.inf, np.nan):
            values = np.zeros(lead + g.shape)
            values[..., 3, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                make(g, values)
        with pytest.raises(ValueError, match="shape"):
            make(g, np.zeros(lead + (9, 8)))


# ---------------------------------------------------------------- stencils

def test_gradient_of_constant_is_zero():
    g = grid2d()
    gr = gradient(ScalarField(g, np.full(g.shape, 3.7)))
    assert np.max(np.abs(gr.values)) == 0.0


def test_gradient_exact_on_linear_zero_flux():
    g = grid2d()
    x = g.meshgrid()[0]
    gr = gradient(ScalarField(g, x)).values
    interior = (slice(1, -1), slice(1, -1))
    assert gr[0][interior] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(gr[1])) < 1e-13


def test_gradient_second_order_periodic():
    errs = []
    for n in (64, 128):
        g = Grid(extent=(1.0, 1.0), points=(n, n), boundary=PERIODIC)
        x = g.meshgrid()[0]
        gr = gradient(ScalarField(g, np.sin(2 * np.pi * x))).values
        errs.append(np.max(np.abs(gr[0] - 2 * np.pi * np.cos(2 * np.pi * x))))
    assert errs[0] / errs[1] >= 3.5


def test_laplacian_constant_and_quadratic():
    g = grid2d()
    assert np.max(np.abs(laplacian(
        ScalarField(g, np.full(g.shape, 2.0))).values)) == 0.0
    x, y = g.meshgrid()
    lap = laplacian(ScalarField(g, x ** 2 + y ** 2)).values
    interior = (slice(1, -1), slice(1, -1))
    assert lap[interior] == pytest.approx(2.0 * g.ndim, abs=1e-10)


def test_laplacian_second_order_periodic():
    errs = []
    for n in (64, 128):
        g = Grid(extent=(1.0,), points=(n,), boundary=PERIODIC)
        x = g.axis_coords(0)
        lap = laplacian(ScalarField(g, np.sin(2 * np.pi * x))).values
        errs.append(np.max(np.abs(lap + 4 * np.pi ** 2 * np.sin(2 * np.pi * x))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def _rolled(grid, values, axis, step):
    """Reference neighbour values[i+step] by np.roll with the ghost fixed up:
    zero-flux mirrors across the boundary node, periodic wraps."""
    out = np.roll(values, -step, axis=axis)
    if grid.boundary == ZERO_FLUX:
        idx = [slice(None)] * values.ndim
        src = [slice(None)] * values.ndim
        idx[axis], src[axis] = (-1, -2) if step == 1 else (0, 1)
        out[tuple(idx)] = values[tuple(src)]
    return out


@pytest.mark.parametrize("boundary", [ZERO_FLUX, PERIODIC])
@pytest.mark.parametrize("points", [(40,), (24, 17), (9, 12, 10)])
def test_stencils_match_roll_reference_bitwise(boundary, points):
    h = 0.1
    extent = tuple(h * (n if boundary == PERIODIC else n - 1) for n in points)
    g = Grid(extent=extent, points=points, boundary=boundary)
    v = np.random.default_rng(len(points)).standard_normal(g.shape)
    grad_ref = np.stack([(_rolled(g, v, ax, 1) - _rolled(g, v, ax, -1))
                         / (2.0 * g.h) for ax in range(g.ndim)])
    lap_ref = np.zeros(g.shape)
    for ax in range(g.ndim):
        lap_ref += (_rolled(g, v, ax, 1) - 2.0 * v
                    + _rolled(g, v, ax, -1)) / g.h ** 2
    f = ScalarField(g, v)
    # the stencil on every axis of a field stacked in front of the grid;
    # the reference of -v is built from -v, not by negating that of v,
    # because (-a) - (-a) is +0.0 and signbit tells the two apart
    stacked = []
    for ax in range(g.ndim):
        out = np.empty((2,) + g.shape)
        _central_difference(np.stack([v, -v]), g, ax, out)
        stacked.append((out, np.stack([
            (_rolled(g, s, ax, 1) - _rolled(g, s, ax, -1)) / (2.0 * g.h)
            for s in (v, -v)])))
    for got, ref in ((gradient(f).values, grad_ref),
                     (laplacian(f).values, lap_ref), *stacked):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


# ---------------------------------------------------------------- integrate

def ball_integral(f, center, r, supersample=4, slab=None):
    return ball_integrals(f.grid, [f.values], center, [r], supersample,
                          slab)[0, 0]


def test_ball_area():
    g = Grid(extent=(2.0, 2.0), points=(129, 129), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    one = ScalarField(g, np.ones(g.shape))
    r = 32 * g.h
    area = ball_integral(one, (0.0, 0.0), r)
    assert abs(area - np.pi * r * r) <= 0.005 * np.pi * r * r


def test_quadratic_over_ball():
    g = Grid(extent=(2.0, 2.0), points=(161, 161), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    x, y = g.meshgrid()
    f = ScalarField(g, x ** 2 + y ** 2)
    r = 0.4
    val = ball_integral(f, (0.0, 0.0), r)
    exact = np.pi * r ** 4 / 2.0
    assert abs(val - exact) <= 0.01 * exact


def test_integrate_linearity():
    g = grid2d(33)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape)
    for integral in (integrate,
                     lambda f: ball_integral(f, (0.1, -0.2), 0.4)):
        lhs = integral(ScalarField(g, a + b))
        rhs = integral(ScalarField(g, a)) + integral(ScalarField(g, b))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_ball_quadrature_converges_in_supersample_and_h():
    r = 0.37
    exact = np.pi * r * r
    errs_s = []
    g = Grid(extent=(2.0, 2.0), points=(65, 65), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    one = ScalarField(g, np.ones(g.shape))
    for s in (1, 2, 4, 8):
        errs_s.append(abs(ball_integral(one, (0, 0), r, s) - exact))
    assert errs_s[-1] < errs_s[0]
    errs_h = []
    for n in (65, 129, 257):
        gh = Grid(extent=(2.0, 2.0), points=(n, n), boundary=ZERO_FLUX,
                  origin=(-1.0, -1.0))
        errs_h.append(abs(ball_integral(ScalarField(gh, np.ones(gh.shape)),
                                        (0, 0), r, 2) - exact))
    assert errs_h[2] < errs_h[0]


def test_slab_ball_region():
    g = Grid(extent=(2.0, 2.0), points=(161, 161), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    one = ScalarField(g, np.ones(g.shape))
    r = 0.4
    # half-disc: slab covering y <= 0 exactly through the center
    half = ball_integral(one, (0.0, 0.0), r, slab=(-1.0, 0.0))
    assert abs(half - np.pi * r * r / 2) <= 0.005 * np.pi * r * r


# ---------------------------------------------------------------- profiles

def test_cumulative_profile_monotone_for_nonnegative():
    g = grid2d(65)
    rng = np.random.default_rng(1)
    f = np.abs(rng.standard_normal(g.shape))
    vals = ball_integrals(g, [f], (0.0, 0.0), np.linspace(0.1, 0.5, 9), 4)
    assert np.all(np.diff(vals[:, 0]) >= 0)


def test_cumulative_profile_zero_field():
    g = grid2d(65)
    vals = ball_integrals(g, [np.zeros(g.shape)], (0.0, 0.0),
                          [0.1, 0.2, 0.3], 4)
    assert np.all(vals[:, 0] == 0.0)


def test_cumulative_profile_areas():
    g = Grid(extent=(2.0, 2.0), points=(257, 257), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    vals = ball_integrals(g, [np.ones(g.shape)], (0.0, 0.0), [0.1, 0.2], 4)
    for r, v in zip([0.1, 0.2], vals[:, 0]):
        assert abs(v - np.pi * r * r) <= 0.01 * np.pi * r * r


def test_boundary_profile_matches_sphere_area():
    g = Grid(extent=(2.0, 2.0), points=(257, 257), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    radii = np.linspace(8 * g.h, 0.5, 17)
    vals = ball_integrals(g, [np.ones(g.shape)], (0.0, 0.0), radii, 4)
    deriv = radial_derivative(np.column_stack([radii, vals[:, 0]]))
    rel = np.abs(deriv[:, 1] - 2 * np.pi * deriv[:, 0]) / (2 * np.pi * deriv[:, 0])
    assert np.max(rel) <= 0.02


def test_boundary_profile_needs_three_radii():
    with pytest.raises(ValueError, match="3 radii"):
        radial_derivative(np.array([[0.1, 1.0], [0.2, 2.0]]))


def test_boundary_profile_zero():
    prof = np.column_stack([np.linspace(0.1, 0.3, 5), np.zeros(5)])
    assert np.all(radial_derivative(prof)[:, 1] == 0.0)


# ---------------------------------------------------------------- lines/planes

def test_line_sample_constant_and_linear():
    g = grid2d(65)
    const = line_sample(ScalarField(g, np.full(g.shape, 2.5)),
                        (0.0, 0.0), (1.0, 1.0), 21, -0.5, 0.5)
    assert const[:, 1] == pytest.approx(2.5, abs=1e-14)
    x = g.meshgrid()[0]
    lin = line_sample(ScalarField(g, x), (0.0, 0.0), (1.0, 0.0), 21, -0.5, 0.5)
    assert lin[:, 1] == pytest.approx(lin[:, 0], abs=1e-13)


def test_line_sample_tanh_layer():
    # off-node base and samples, so multilinear interpolation is exercised;
    # the (h/2)^2 max|q''|/(2 eps^2) interpolation bound needs h <= eps/12
    # to sit under 1e-3
    eps = 0.05
    h = eps / 12
    n = int(round(2.0 / h)) + 1
    g = Grid(extent=(2.0, 2.0), points=(n, n), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    x, y = g.meshgrid()
    f = ScalarField(g, np.tanh(y / eps))
    base = (0.1234567, 0.0003)
    ls = line_sample(f, base, (0.0, 1.0), 977, -0.5, 0.4993)
    err = np.max(np.abs(ls[:, 1] - np.tanh((ls[:, 0] + base[1]) / eps)))
    assert err <= 1e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", [ZERO_FLUX, PERIODIC])
@pytest.mark.parametrize("name", ["base", "direction", "t_lo", "t_hi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=("nan", "inf", "-inf"))
def test_line_sample_refuses_non_finite_by_name(boundary, name, bad):
    g = grid2d(17, boundary)
    args = {"base": (0.0, 0.0), "direction": (1.0, 0.5), "t_lo": -0.4,
            "t_hi": 0.4}
    args[name] = (0.0, bad) if name in ("base", "direction") else bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        line_sample(ScalarField(g, np.zeros(g.shape)), samples=9, **args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples,message", [
    (np.nan, "samples must be finite"), (np.inf, "samples must be finite"),
    (-np.inf, "samples must be finite"),
    (2.5, "samples must be a whole number")], ids=str)
def test_line_sample_refuses_a_count_that_is_not_whole_by_name(samples,
                                                              message):
    g = grid2d(17, ZERO_FLUX)
    with pytest.raises(ValueError, match=f"^{message}"):
        line_sample(ScalarField(g, np.zeros(g.shape)), (0.0, 0.0),
                    (1.0, 0.5), samples, -0.4, 0.4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", [ZERO_FLUX, PERIODIC])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=("nan", "inf", "-inf"))
def test_interpolate_refuses_non_finite_points(boundary, bad):
    g = grid2d(17, boundary)
    with pytest.raises(ValueError, match="^pts must be finite"):
        interpolate(ScalarField(g, np.zeros(g.shape)), [(0.0, 0.0), (bad, 0.1)])


def test_line_sample_rejects_exit():
    g = grid2d(65)
    with pytest.raises(RegionError, match="outside"):
        line_sample(ScalarField(g, np.zeros(g.shape)),
                    (0.0, 0.0), (1.0, 0.0), 11, 0.0, 2.0)


def test_plane_restriction_and_disc():
    g = Grid(extent=(2.0, 2.0), points=(129, 129), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    x, y = g.meshgrid()
    f = ScalarField(g, y)
    plane = restrict_to_plane(f, 0.3)
    assert plane == pytest.approx(0.3, abs=1e-12)
    val = disc_integral(g, plane, (0.0,), 0.4)
    assert val == pytest.approx(0.3 * 0.8, rel=1e-2)
