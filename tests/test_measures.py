"""Density fields, curvature norms, the first-variation identity, and the
Hoelder chain."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from aclab import (AnalysisParams, Grid, PERIODIC, ScalarField, VectorField,
                   ZERO_FLUX, constants, corollary_holder_check,
                   density_fields, diffuse_mean_curvature_norm,
                   first_variation_identity, make_state, norm_report,
                   smooth_test_field)
from aclab import fields, measures
from aclab.measures import eta_lq_norm
from aclab import (LayerSpec, build_layer_stack, build_radial_layer,
                   manufactured_forcing)
from aclab.fields import gradient


def constant_state(value, eps=0.1, n=81):
    g = Grid(extent=(2.0, 2.0), points=(n, n), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u = ScalarField(g, np.full(g.shape, float(value)))
    f = ScalarField(g, np.zeros(g.shape))
    return make_state(u, f, eps)


# ---------------------------------------------------------------- densities

def test_density_trivial_states():
    st1 = constant_state(1.0)
    mu1, xi1 = density_fields(st1, ...)
    assert np.max(np.abs(mu1)) == 0.0
    assert np.max(np.abs(xi1)) == 0.0

    st0 = constant_state(0.0, eps=0.1)
    mu0, xi0 = density_fields(st0, ...)
    assert mu0 == pytest.approx(1.0 / 0.2)
    assert xi0 == pytest.approx(-1.0 / 0.2)
    assert norm_report(st0).xi_plus_mass == 0.0


def test_pointwise_density_identities():
    # mu - xi = 2W/eps and mu + xi = eps|grad u|^2, as exact algebra
    g = Grid(extent=(1.0, 1.0), points=(33, 33), boundary=ZERO_FLUX)
    rng = np.random.default_rng(5)
    eps = 0.1
    u = ScalarField(g, rng.uniform(-1.2, 1.2, g.shape))
    st = make_state(u, ScalarField(g, np.zeros(g.shape)), eps)
    mu, xi = density_fields(st, ...)
    from aclab import double_well
    grad_sq = np.sum(gradient(u).values ** 2, axis=0)
    assert np.max(np.abs(mu - xi - 2 * double_well(u.values) / eps)) <= 1e-12
    assert np.max(np.abs(mu + xi - eps * grad_sq)) <= 1e-12
    assert np.all(mu >= 0)
    assert np.all(np.abs(xi) <= mu * (1 + 1e-12) + 1e-15)


def random_state(n=33, seed=6, eps=0.1):
    g = Grid(extent=(1.0, 1.0), points=(n, n), boundary=ZERO_FLUX)
    u = ScalarField(g, np.random.default_rng(seed).uniform(-1, 1, g.shape))
    return make_state(u, ScalarField(g, np.zeros(g.shape)), eps)


def test_density_fields_hold_no_grid_array():
    # mu and xi are formed where they are read: the state's memo stays
    # empty, and every read, also on a fresh state of the same data, gives
    # the same bits
    st = random_state()
    mu, xi = density_fields(st, ...)
    assert st._derived == {}
    fresh = make_state(st.u, st.f, st.epsilon)
    for a, b in zip(density_fields(fresh, ...), (mu, xi), strict=True):
        assert np.array_equal(a, b)


def test_norm_report_is_memoised():
    # the analyses of a state share one report, computed once
    st = random_state(n=257)
    with mock.patch.object(measures, "_norm_report",
                           wraps=measures._norm_report) as compute:
        first = norm_report(st)
        assert norm_report(st) is first
    assert compute.call_count == 1


def test_equidistribution_ratio_and_refinement(planar_state, planar_state_fine):
    r_coarse = [norm_report(s) for s in (planar_state, planar_state_fine)]
    ratios = [r.xi_abs_mass / r.total_energy for r in r_coarse]
    assert ratios[0] <= 1e-2
    assert ratios[0] / ratios[1] >= 3.0


# ---------------------------------------------------------------- curvature

@pytest.mark.parametrize("field,value", [
    ("q0", np.inf), ("q0", np.nan), ("grad_threshold", np.nan),
    ("grad_threshold", np.inf), ("grad_threshold", -1.0),
    ("supersample", 2.5), ("supersample", 0), ("tau", np.nan)])
def test_analysis_params_refuse_bad_values(field, value):
    # each refusal names its field, before any state is analysed
    with pytest.raises(ValueError, match=field):
        AnalysisParams(**{field: value})


def test_curvature_norm_trivial_cases():
    st = constant_state(0.0)
    zero_f = st
    lam, frac = diffuse_mean_curvature_norm(zero_f, AnalysisParams())
    assert lam == 0.0 and frac == 0.0
    # u constant, f nonzero: no gradient mass exists at all
    g = st.grid
    f = ScalarField(g, np.full(g.shape, 2.0))
    st2 = make_state(st.u, f, st.epsilon)
    lam2, frac2 = diffuse_mean_curvature_norm(st2, AnalysisParams())
    assert lam2 == 0.0 and frac2 == 0.0


def test_curvature_norm_circle_oracle(circle_state):
    # oracle: 1-d quadrature of (q')^2 (1/r)^{q0} eps^... along the normal,
    # times circumference; leading value (2 pi alpha R^{1-q0})^{1/q0}
    alpha = constants().alpha
    params = AnalysisParams()  # q0 = 2 in 2-d
    lam, frac = diffuse_mean_curvature_norm(circle_state, params)
    eps, R = circle_state.epsilon, 0.5

    def integrand(r):
        qp = 1.0 - np.tanh((r - R) / eps) ** 2
        return (1.0 / r) ** 2 * qp ** 2 / eps * 2.0 * np.pi * r

    oracle, _ = scipy.integrate.quad(integrand, R - 12 * eps, R + 12 * eps)
    assert lam ** 0.5 == pytest.approx(oracle ** 0.5, rel=0.15)
    assert frac <= 1e-6


def test_norm_report_layer(planar_state):
    alpha = constants().alpha
    rep = norm_report(planar_state)
    assert rep.total_energy == pytest.approx(2.0 * alpha, rel=0.01)
    assert rep.sup_u <= 1.0 + 1e-9


def test_sup_eps_grad_peak_resolved():
    # needs h <= eps/32 for the discrete gradient to hit the peak within 1e-3
    eps = 0.05
    g = Grid(extent=(2.0,), points=(1281,), boundary=ZERO_FLUX, origin=(-1.0,))
    u = build_layer_stack(g, eps, LayerSpec(positions=(0.0,), axis=0))
    st = make_state(u, manufactured_forcing(u, eps), eps)
    rep = norm_report(st)
    assert rep.sup_eps_grad == pytest.approx(1.0, abs=1e-3)


def test_norm_report_constant_zero():
    st = constant_state(0.0, eps=0.1)
    rep = norm_report(st)
    assert rep.total_energy == pytest.approx(4.0 / 0.2, rel=1e-12)
    assert rep.sup_u == 0.0
    assert rep.lambda_hat == 0.0


# ---------------------------------------------------------------- corollary

def test_holder_check_zero_forcing():
    st = constant_state(0.3)
    res = corollary_holder_check(st, s=3.0, t=6.0)
    assert res.lhs == 0.0 and res.holds


def test_holder_check_circle(circle_state):
    res = corollary_holder_check(circle_state, s=3.0, t=6.0)
    assert res.holds
    assert res.q0 == pytest.approx(4.0)


def test_holder_check_zero_threshold_is_finite(planar_state):
    # the far field has grad u = 0 and f = 0: the 0/0 quotient counts as 0
    params = AnalysisParams(grad_threshold=0.0)
    res = corollary_holder_check(planar_state, s=3.0, t=6.0, params=params)
    assert np.isfinite(res.c2) and np.isfinite(res.rhs)
    assert res.holds


def test_holder_check_decides_an_underflowing_chain_again_rescaled():
    # quotient^t of f = 1e-70 underflows to 0, so rhs = 0 < lhs; the chain
    # is homogeneous in f and holds for f / max|f|
    g = Grid(extent=(2.0, 2.0), points=(81, 81), origin=(-1.0, -1.0))
    state = make_state(build_radial_layer(g, 0.1, (0.0, 0.0), 0.5),
                       ScalarField(g, np.full(g.shape, 1e-70)), 0.1)
    res = corollary_holder_check(state, s=3.0, t=6.0)
    assert res.rhs == 0.0 < res.lhs
    assert res.holds


@st.composite
def smooth_holder_problems(draw):
    """A random smooth u (tanh of a low-order cosine sum) and a random
    smooth f on a small 2-d or 3-d grid, with exponents s > 2, t > 0."""
    ndim = draw(st.sampled_from((2, 3)))
    boundary = draw(st.sampled_from((ZERO_FLUX, PERIODIC)))
    points = tuple(draw(st.integers(10, {2: 40, 3: 16}[ndim]))
                   for _ in range(ndim))
    h = 0.05
    extent = tuple(h * (n if boundary == PERIODIC else n - 1) for n in points)
    g = Grid(extent=extent, points=points, boundary=boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def smooth():
        total = rng.uniform(-0.5, 0.5)
        for _ in range(3):
            k = rng.integers(0, 3, ndim)
            mode = np.ones(())
            for m, ext, kk in zip(g.meshgrid(sparse=True), extent, k):
                mode = mode * np.cos(np.pi * kk * m / ext + rng.uniform(0, 6))
            total = total + rng.uniform(-1.0, 1.0) * mode
        return total

    eps = draw(st.sampled_from((0.2, 0.3)))
    u = ScalarField(g, np.tanh(smooth() / eps))
    f = ScalarField(g, draw(st.floats(0.0, 5.0)) * smooth())
    s = draw(st.floats(2.05, 8.0))
    t = draw(st.floats(0.25, 8.0))
    threshold = draw(st.sampled_from((0.0, 1e-8, 1e-2)))
    return (make_state(u, f, eps), s, t,
            AnalysisParams(grad_threshold=threshold))


@settings(max_examples=40, deadline=None)
@given(smooth_holder_problems())
def test_holder_chain_holds_on_random_smooth_fields(problem):
    state, s, t, params = problem
    res = corollary_holder_check(state, s=s, t=t, params=params)
    assert np.isfinite(res.lhs) and np.isfinite(res.rhs)
    assert res.holds
    # the reported sides satisfy the chain too, unless a tiny f underflows
    # their powers (holds is then decided at max|f| = 1)
    if np.max(np.abs(state.f.values)) >= 1e-30:
        assert res.lhs <= res.rhs * (1.0 + 1e-9)


def test_holder_check_preconditions(circle_state):
    with pytest.raises(ValueError, match="s must exceed 2"):
        corollary_holder_check(circle_state, s=2.0, t=6.0)
    with pytest.raises(ValueError, match="t must be positive"):
        corollary_holder_check(circle_state, s=3.0, t=0.0)


# ---------------------------------------------------------------- first variation

def test_first_variation_trivial_state():
    st = constant_state(1.0)
    eta = smooth_test_field(st.grid, seed=1)
    res = first_variation_identity(st, eta)
    assert res.lhs == 0.0 and res.rhs == 0.0


def test_first_variation_refuses_a_field_on_another_grid():
    st = constant_state(1.0)
    other = Grid(extent=(2.0, 2.0), points=(41, 41), boundary=ZERO_FLUX)
    with pytest.raises(ValueError, match="eta must live on the state's grid"):
        first_variation_identity(st, smooth_test_field(other, seed=1))


def test_first_variation_constant_eta_on_closed_interface(circle_state):
    # eta constant where the ring mass lives: grad eta = 0 kills the lhs and
    # the forcing term integrates the closed interface normal to ~0
    g = circle_state.grid
    x, y = g.meshgrid()

    def plateau(s):
        out = np.ones_like(s)
        ramp = (np.abs(s) > 0.75) & (np.abs(s) < 1.0)
        out[ramp] = np.cos(np.pi * (np.abs(s[ramp]) - 0.75) / 0.5) ** 2
        out[np.abs(s) >= 1.0] = 0.0
        return out

    half = 1.0 - 6 * g.h
    b = plateau(x / half) * plateau(y / half)
    eta = VectorField(g, np.stack([0.7 * b, -0.3 * b]))
    res = first_variation_identity(circle_state, eta)
    assert abs(res.lhs) <= 1e-6
    assert abs(res.rhs) <= 1e-6


def test_first_variation_residual_small(circle_state):
    params = AnalysisParams()
    for seed in (31, 32, 33):
        eta = smooth_test_field(circle_state.grid, seed)
        res = first_variation_identity(circle_state, eta, params)
        assert res.residual <= 1e-3


def test_first_variation_duality_bound(circle_state):
    params = AnalysisParams()
    q0 = params.resolve_q0(circle_state.grid.ndim)
    lam, _ = diffuse_mean_curvature_norm(circle_state, params)
    for seed in (41, 42):
        eta = smooth_test_field(circle_state.grid, seed)
        res = first_variation_identity(circle_state, eta, params)
        bound = lam ** (1 / q0) * eta_lq_norm(circle_state, eta, q0 / (q0 - 1))
        assert abs(res.lhs) <= bound * (1.0 + 1e-6)


def test_eta_linf_norm_is_sup_over_mu_support():
    eta = smooth_test_field(constant_state(0.0).grid, seed=3)
    peak = float(np.max(np.sqrt(np.sum(eta.values ** 2, axis=0))))
    # mu = W(0)/eps > 0 everywhere, and mu = 0 everywhere on a pure phase
    assert eta_lq_norm(constant_state(0.0), eta, np.inf) == peak
    assert eta_lq_norm(constant_state(1.0), eta, np.inf) == 0.0


def full_tensor_first_variation(state, eta, params):
    """The identity's four numbers from all ndim^2 derivatives d_i eta_j at
    once, one gradient per component, summed by sum(): the reference for
    the streamed form."""
    g = state.grid
    grad_u = gradient(state.u).values
    grad_sq = fields._grad_sq_at(state.u.values, g, ...)
    w = g.node_weights()
    comps = [gradient(ScalarField(g, eta.values[j])).values
             for j in range(g.ndim)]  # comps[j][i] = d_i eta_j
    div_eta = sum(comps[j][j] for j in range(g.ndim))
    grad_mag = np.sqrt(grad_sq)
    included = state.epsilon * grad_mag >= params.grad_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = np.where(included, grad_u / grad_mag, 0.0)
    grad_eta_nunu = sum(comps[j][i] * nu[i] * nu[j]
                        for i in range(g.ndim) for j in range(g.ndim))
    mu, xi = density_fields(state, ...)
    lhs = float(np.sum(np.where(included, (div_eta - grad_eta_nunu) * mu,
                                0.0) * w))
    pairing = sum(grad_u[i] * eta.values[i] for i in range(g.ndim))
    forcing = float(np.sum(state.f.values * pairing * w))
    disc = float(np.sum(np.where(included, grad_eta_nunu * xi, 0.0) * w))
    return lhs, forcing + disc, forcing, disc


def manufactured_ball_state(points, boundary, eps, radius, center=None):
    h = 0.05
    extent = tuple(h * (n if boundary == PERIODIC else n - 1) for n in points)
    g = Grid(extent=extent, points=points, boundary=boundary,
             origin=tuple(-0.5 * e for e in extent))
    center = center if center is not None else (0.0,) * g.ndim
    u = build_radial_layer(g, eps, center, radius)
    return make_state(u, manufactured_forcing(u, eps), eps)


@st.composite
def first_variation_problems(draw):
    ndim = draw(st.sampled_from((2, 3)))
    boundary = draw(st.sampled_from((ZERO_FLUX, PERIODIC)))
    top = {2: 40, 3: 20}[ndim]
    points = tuple(draw(st.integers(14, top)) for _ in range(ndim))
    # strictly above 2h = 0.1: the grid's h = extent / (n - 1) can round to
    # just above 0.05, and eps = 0.1 is then refused as under-resolved
    eps = draw(st.sampled_from((0.12, 0.15, 0.2)))
    radius = draw(st.floats(0.1, 0.4))
    center = tuple(draw(st.floats(-0.1, 0.1)) for _ in range(ndim))
    threshold = draw(st.sampled_from((1e-8, 1e-3, 0.1)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    # axis-0 planes per slab: one, a few (the last slab shorter), or all
    planes = draw(st.sampled_from((1, 2, 3, points[0])))
    q = draw(st.sampled_from((1.5, 2.0, 3.0)))
    return (manufactured_ball_state(points, boundary, eps, radius, center),
            AnalysisParams(grad_threshold=threshold), seed, planes, q)


@settings(max_examples=30, deadline=None)
@given(first_variation_problems())
def test_first_variation_equals_full_tensor_reference(problem):
    state, params, seed, planes, q = problem
    eta = smooth_test_field(state.grid, seed)
    slab_nodes = planes * int(np.prod(state.grid.shape[1:]))
    with mock.patch.object(fields, "_SLAB_NODES", slab_nodes):
        res = first_variation_identity(state, eta, params)
    lhs, rhs, forcing, disc = full_tensor_first_variation(state, eta, params)
    assert res.lhs == lhs and res.rhs == rhs
    assert res.forcing_term == forcing and res.discrepancy_term == disc
    # |eta| of the whole (ndim,) + shape array at once as the reference
    mu, w = density_fields(state, ...)[0], state.grid.node_weights()
    mag = np.sqrt(np.sum(eta.values ** 2, axis=0))
    assert eta_lq_norm(state, eta, q) == np.sum(mag ** q * mu * w) ** (1 / q)
    assert eta_lq_norm(state, eta, np.inf) == np.max(
        mag, where=mu * w > 0, initial=0.0)


def test_first_variation_and_test_field_memory_budget():
    # traced peaks in units of one 3 x 65^3 float64 vector field, each the
    # measured peak plus a quarter field; the node weights are built inside
    # the first call (a third of a field). At 65^3 one slab is one of the
    # 65 planes.
    state = manufactured_ball_state((65, 65, 65), ZERO_FLUX, 0.1, 0.5)
    size = 3 * 65 ** 3 * 8

    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / size
        finally:
            tracemalloc.stop()

    assert traced_peak(smooth_test_field, state.grid, 1) <= 1.61
    eta = smooth_test_field(state.grid, 2)
    assert traced_peak(first_variation_identity, state, eta) <= 1.41
    for q in (1.5, np.inf):
        assert traced_peak(eta_lq_norm, state, eta, q) <= 0.60


def stacked_test_field(grid, seed, sparse, margin_cells=5.0):
    """smooth_test_field as whole components joined by np.stack, evaluated
    on the sparse (broadcast) or the full meshgrid, as a reference."""
    rng = np.random.default_rng(seed)
    centers = [0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)]
    halves = [0.5 * ext - margin_cells * grid.h for ext in grid.extent]
    bump = np.ones(() if sparse else grid.shape)
    scaled = []
    for m, c, hw in zip(grid.meshgrid(sparse=sparse), centers, halves):
        s = (m - c) / hw
        scaled.append(s)
        with np.errstate(divide="ignore", over="ignore"):
            b = np.where(np.abs(s) < 1.0,
                         np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, 1e-300)),
                         0.0)
        bump = bump * b
    comps = []
    for _ in range(grid.ndim):
        poly = rng.uniform(-1.0, 1.0)
        if not sparse:
            poly = np.full(grid.shape, poly)
        for s in scaled:
            poly = poly + rng.uniform(-1.0, 1.0) * np.sin(np.pi * s)
            poly = poly + rng.uniform(-1.0, 1.0) * np.cos(np.pi * s)
        comps.append(bump * poly)
    return np.stack(comps)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**256) | st.sampled_from(
    (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**256)))
def test_test_field_draws_are_default_rngs_stream(seed):
    # 21 draws make a 3-d field; 32 cover it with margin
    rng, ours = np.random.default_rng(seed), measures._PCG64(seed)
    for _ in range(32):
        assert ours.uniform(-1.0, 1.0) == rng.uniform(-1.0, 1.0)


def test_test_field_seed_is_a_non_negative_integer():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        measures._PCG64(-1)
    with pytest.raises(TypeError):
        measures._PCG64(1.5)


@pytest.mark.parametrize("boundary", [ZERO_FLUX, PERIODIC])
@pytest.mark.parametrize("points", [(64,), (41, 30), (21, 24, 19)])
def test_smooth_test_field_matches_meshgrid_reference(boundary, points):
    h = 0.05
    extent = tuple(h * (n if boundary == PERIODIC else n - 1) for n in points)
    g = Grid(extent=extent, points=points, boundary=boundary,
             origin=(-0.3,) * len(points))
    for seed in (0, 11):
        got = smooth_test_field(g, seed).values
        for sparse in (False, True):
            ref = stacked_test_field(g, seed, sparse)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_first_variation_rejects_boundary_support():
    # one nonzero node of eta at a time: on a face's outermost layer (0), on
    # the innermost layer of its 4h shell (3), or one node past the shell
    # (4), counted from the face, on each side of each axis, positive on
    # the low side and negative on the high one, read in slabs of 1, 2, 3
    # and all 16 axis-0 planes; a zero-flux grid refuses the first two, a
    # periodic grid takes every case
    for boundary, ndim, planes in itertools.product(
            (ZERO_FLUX, PERIODIC), (1, 2, 3), (1, 2, 3, 16)):
        state = manufactured_ball_state((16,) * ndim, boundary, 0.12, 0.2)
        slab_nodes = planes * 16 ** (ndim - 1)
        with mock.patch.object(fields, "_SLAB_NODES", slab_nodes):
            assert len(fields._slabs(state.grid)) == -(-16 // planes)
            for axis, side, layer in itertools.product(
                    range(ndim), ("low", "high"), (0, 3, 4)):
                node = [8] * ndim
                node[axis] = layer if side == "low" else 15 - layer
                values = np.zeros((ndim,) + state.grid.shape)
                values[(ndim - 1, *node)] = 0.5 if side == "low" else -0.5
                eta = VectorField(state.grid, values)
                case = (boundary, ndim, planes, axis, side, layer)
                if boundary == ZERO_FLUX and layer < 4:
                    with pytest.raises(ValueError, match="vanish within 4h"):
                        first_variation_identity(state, eta)
                        pytest.fail(f"accepted {case}")
                else:
                    first_variation_identity(state, eta)

