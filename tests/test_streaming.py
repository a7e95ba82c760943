"""Every whole-grid integrand is built one slab of axis-0 planes at a time
and summed slab by slab along numpy's own pairwise tree
(`fields._PairwiseSums`), with no whole-grid buffer; the gradient and the
Laplacian of u, the node weights, the forcing and the residual are built a
slab at a time, and mu, xi and |grad u| are formed from the one cached
|grad u|^2 on the nodes they are read on. Each streamed number must equal,
bit for bit, the whole-grid computation it replaced; those computations
are kept here as the references. Slabs of 1, 2 and 3 planes and the whole
grid, on 1-d, 2-d and 3-d, zero-flux and periodic grids."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aclab import (AnalysisParams, Grid, PERIODIC, ScalarField,
                   SmoothTestField, ZERO_FLUX, build_radial_layer,
                   corollary_holder_check, density_fields,
                   diffuse_mean_curvature_norm, double_well,
                   double_well_prime, first_variation_identity, gradient,
                   integrate, interpolate, laplacian, make_state,
                   manufactured_forcing, norm_report, smooth_test_field)
from aclab import fields, monotonicity
from aclab.fields import restrict_to_plane
from aclab.measures import eta_lq_norm

POINTS = {1: (64,), 2: (30, 26), 3: (14, 12, 13)}


def ball_state(ndim, boundary):
    points = POINTS[ndim]
    h = 0.05
    extent = tuple(h * (n if boundary == PERIODIC else n - 1) for n in points)
    g = Grid(extent=extent, points=points, boundary=boundary,
             origin=tuple(-0.5 * e for e in extent))
    eps = 0.15
    u = build_radial_layer(g, eps, (0.03,) * ndim, 0.22)
    return make_state(u, manufactured_forcing(u, eps), eps)


CASES = [(ndim, boundary, planes) for ndim in (1, 2, 3)
         for boundary in (ZERO_FLUX, PERIODIC) for planes in (1, 2, 3, None)]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}d-{c[1]}-{c[2] or 'all'}")
def streamed(request):
    """A state and slabs of `planes` axis-0 planes (None: the whole grid)."""
    ndim, boundary, planes = request.param
    state = ball_state(ndim, boundary)
    plane = int(np.prod(state.grid.shape[1:]))
    nodes = (planes or state.grid.shape[0]) * plane
    with mock.patch.object(fields, "_SLAB_NODES", nodes):
        assert len(fields._slabs(state.grid)) == -(-state.grid.shape[0]
                                                  // (planes or 10 ** 9))
        yield state


# ---------------------------------------------------------------- references

def reference_gradient(state):
    """The central differences along whole grid axes."""
    g = state.grid
    grad = np.empty((g.ndim,) + g.shape)
    for ax in range(g.ndim):
        fields._central_difference(state.u.values, g, ax, grad[ax])
    return grad


def reference_laplacian(v, grid):
    """The (2*dim+1)-point stencil along whole grid axes, summed axis by
    axis onto zeros."""
    out, term = np.zeros(grid.shape), np.empty(grid.shape)
    for ax in range(grid.ndim):
        for nodes, plus, minus in fields._neighbours(grid, ax):
            np.multiply(v[nodes], 2.0, out=term[nodes])
            np.subtract(v[plus], term[nodes], out=term[nodes])
            term[nodes] += v[minus]
        term /= grid.h ** 2
        out += term
    return out


def reference_densities(state):
    """mu, xi and |grad u| built whole, and |grad u|^2."""
    grad = reference_gradient(state)
    grad_sq = np.sum(grad * grad, axis=0)
    w = double_well(state.u.values)
    eps = state.epsilon
    mu = 0.5 * eps * grad_sq + w / eps
    xi = 0.5 * eps * grad_sq - w / eps
    return mu, xi, np.sqrt(grad_sq), grad_sq


def reference_quotient(state, threshold):
    eps = state.epsilon
    grad_mag = reference_densities(state)[2]
    eps_grad = eps * grad_mag
    mass = eps * grad_mag ** 2
    included = eps_grad >= threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(included, np.abs(state.f.values) / eps_grad, 0.0)
    quotient = np.where(np.isfinite(quotient), quotient, 0.0)
    return quotient, mass, included


def reference_curvature_norm(state, q0, threshold):
    quotient, mass, included = reference_quotient(state, threshold)
    w = state.grid.node_weights()
    lam = float(np.sum(quotient ** q0 * mass * w))
    total = float(np.sum(mass * w))
    excl = float(np.sum(np.where(included, 0.0, mass) * w))
    return lam, (excl / total if total > 0 else 0.0)


# ---------------------------------------------------------------- exact sums

def streamed_sums(arrays, cuts):
    """_PairwiseSums of the arrays fed in the runs of axis-0 planes that
    the plane indices `cuts` start."""
    sums = fields._PairwiseSums(arrays[0].size)
    bounds = [0, *cuts, arrays[0].shape[0]]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sums.add([a[lo:hi] for a in arrays])
    return sums.sums()


def assert_bits_of_np_sum(arrays, cuts):
    for got, a in zip(streamed_sums(arrays, cuts), arrays, strict=True):
        want = float(np.sum(a))
        assert got == want
        assert np.signbit(got) == np.signbit(want)


# element counts below numpy's 8-way unroll, up to one pairwise leaf, and
# above it
SIZES = {"below-8": (1, 7), "leaf": (8, 128), "tree": (129, 5000)}


@pytest.mark.parametrize("size", SIZES, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pairwise_sums_have_the_bits_of_np_sum(size, data):
    """np.sum of a C-contiguous float64 array is numpy's pairwise_sum
    (numpy/_core/src/umath/loops_utils.h.src) over its flat order: leaves of
    at most PW_BLOCKSIZE = 128 elements summed with an 8-way unroll, longer
    runs split after half their length rounded down to a multiple of 8.
    _PairwiseSums walks that tree a run of whole axis-0 planes at a time;
    if numpy changes the tree, this fails first. Checked on numpy 2.4."""
    lo, hi = SIZES[size]
    ndim = data.draw(st.integers(1, 3), label="ndim")
    side = 2 if size == "below-8" else 12
    rest = tuple(data.draw(st.lists(st.integers(1, side), min_size=ndim - 1,
                                     max_size=ndim - 1), label="rest"))
    plane = int(np.prod(rest))
    n0 = data.draw(st.integers(max(1, -(-lo // plane)),
                               max(1, hi // plane)), label="n0")
    assume(lo <= n0 * plane <= hi)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n0 - 1)))
                            if n0 > 1 else st.just(set()), label="cuts"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n0,) + rest
    # magnitudes 1e-8 to 1e8 of either sign, and a share of +0.0 and -0.0
    values = (rng.choice([-1.0, 1.0], shape)
              * 10.0 ** rng.uniform(-8.0, 8.0, shape))
    zeros = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[zeros] *= 0.0
    assert_bits_of_np_sum([values, -values], cuts)


@pytest.mark.parametrize("shape", [(129, 129), (65, 65, 65)], ids=str)
def test_pairwise_sums_on_whole_grids(shape):
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    g = Grid(extent=(1.0,) * len(shape), points=shape)
    weighted = values * g.node_weights()
    for cuts in ([s.start for s in fields._slabs(g)[1:]],
                 list(range(1, shape[0])), [shape[0] // 3]):
        assert_bits_of_np_sum([weighted, values], cuts)


# ---------------------------------------------------------------- stencil

def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def dyadic_grid(points, boundary):
    """A grid of spacing 1/8 at the origin: node coordinates, and quadratics
    with small integer coefficients on them, are exact in floating point."""
    h = 0.125
    extent = tuple(h * (n if boundary == PERIODIC else n - 1) for n in points)
    return Grid(extent=extent, points=points, boundary=boundary)


def grids(max_points):
    return st.tuples(
        st.integers(1, 3), st.sampled_from([ZERO_FLUX, PERIODIC])).flatmap(
        lambda nb: st.tuples(
            st.lists(st.integers(8, max_points), min_size=nb[0],
                     max_size=nb[0]).map(tuple), st.just(nb[1])))


@settings(max_examples=120, deadline=None)
@given(shape_boundary=grids(12), data=st.data())
def test_slab_laplacian_matches_whole_axis_stencil(shape_boundary, data):
    """_laplacian_planes on any run of axis-0 planes has the bits of the
    stencil along whole grid axes, signed zeros included."""
    points, boundary = shape_boundary
    g = dyadic_grid(points, boundary)
    n0 = points[0]
    cuts = sorted(data.draw(st.sets(st.integers(1, n0 - 1)), label="cuts"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    v = rng.choice([-1.0, 1.0], points) * 10.0 ** rng.uniform(-8, 8, points)
    v[rng.random(points) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] *= 0.0
    ref = reference_laplacian(v, g)
    bounds = [0, *cuts, n0]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert_same_bits(fields._laplacian_planes(v, g, slice(lo, hi)),
                         ref[lo:hi])


@settings(max_examples=60, deadline=None)
@given(shape_boundary=grids(11),
       coef=st.lists(st.integers(-4, 4), min_size=10, max_size=10))
def test_laplacian_is_exact_on_quadratics_in_the_interior(shape_boundary,
                                                          coef):
    """On a polynomial of degree <= 2 the stencil is exact away from the
    boundary ghosts: sum_i 2 a_ii, where the polynomial is c + sum_i b_i x_i
    + sum_{i<=j} a_ij x_i x_j. Node values and differences are exact on the
    dyadic grid, so the check is ==."""
    points, boundary = shape_boundary
    g = dyadic_grid(points, boundary)
    x = g.meshgrid()
    nd = g.ndim
    p = coef[0] + sum(coef[1 + i] * x[i] for i in range(nd))
    quad = coef[4:]
    pairs = [(i, j) for i in range(nd) for j in range(i, nd)]
    p = p + sum(quad[k] * x[i] * x[j] for k, (i, j) in enumerate(pairs))
    want = float(sum(2 * quad[k] for k, (i, j) in enumerate(pairs) if i == j))
    interior = (slice(1, -1),) * nd
    got = laplacian(ScalarField(g, p)).values[interior]
    assert np.all(got == want)


# ---------------------------------------------------------------- tests

def test_slab_gradient_matches_whole_grid(streamed):
    g, u = streamed.grid, streamed.u.values
    ref = reference_gradient(streamed)
    whole = gradient(streamed.u).values
    assert_same_bits(whole, ref)
    for sl in fields._slabs(g):
        assert_same_bits(fields._gradient_planes(u, g, sl), whole[:, sl])
    # one plane of the last axis at a time, as the sheet integrand forms
    # grad u on the two planes around {x_last = t}: the ends mirror or wrap
    for k in range(g.shape[-1]):
        plane = fields._gradient_planes(u, g, slice(k, k + 1), -1)
        assert_same_bits(plane[..., 0], whole[..., k])


def test_slab_weights_match_whole_grid(streamed):
    g = streamed.grid
    whole = fields._unit_weights(g) * g.h ** g.ndim
    assert_same_bits(g.node_weights(), whole)
    for sl in fields._slabs(g):
        assert_same_bits(g.node_weights(sl), whole[sl])


def test_slab_laplacian_forcing_and_residual_match_whole_grid(streamed):
    g, eps, u = streamed.grid, streamed.epsilon, streamed.u
    ref = reference_laplacian(u.values, g)
    assert_same_bits(laplacian(u).values, ref)
    for sl in fields._slabs(g):
        assert_same_bits(fields._laplacian_planes(u.values, g, sl), ref[sl])
    forcing = eps * ref - double_well_prime(u.values) / eps
    assert_same_bits(manufactured_forcing(u, eps).values, forcing)
    # a residual that is not zero: the state's f against another forcing
    f = ScalarField(g, np.cos(7.0 * u.values))
    assert make_state(u, f, eps).residual_norm == float(
        np.max(np.abs(forcing - f.values)))


def test_density_fields_match_whole_grid(streamed):
    dens = density_fields(streamed)
    mu, xi, grad_mag, grad_sq = reference_densities(streamed)
    assert_same_bits(dens.grad_sq, grad_sq)
    got = (dens.mu, dens.xi, dens.grad_mag)
    for field, ref in zip(got, (mu, xi, grad_mag), strict=True):
        assert_same_bits(field.values, ref)
    for sl in fields._slabs(streamed.grid):
        for a, ref in zip(dens.on(sl), (mu, xi), strict=True):
            assert_same_bits(a, ref[sl])
    # mu read on the corners of an interpolation stencil and on the two
    # grid planes of a hyperplane, as the lines and the sheets read it
    g = streamed.grid
    whole = ScalarField(g, mu)
    pts = np.random.default_rng(3).uniform(g.lo, g.hi, (50, g.ndim))
    assert_same_bits(interpolate(dens.lazy_mu(), pts), interpolate(whole, pts))
    t = g.axis_coords(g.ndim - 1)[4] + 0.3 * g.h
    assert_same_bits(np.asarray(restrict_to_plane(dens.lazy_mu(), t)),
                     np.asarray(restrict_to_plane(whole, t)))


@pytest.mark.parametrize("threshold", [0.0, 1e-8, 0.3])
def test_curvature_norm_and_holder_sums_match_whole_grid(streamed, threshold):
    g, eps, f = streamed.grid, streamed.epsilon, streamed.f.values
    q0 = float(g.ndim)
    params = AnalysisParams(q0=q0, grad_threshold=threshold)
    assert diffuse_mean_curvature_norm(streamed, params) == \
        reference_curvature_norm(streamed, q0, threshold)
    s, t = 3.0, 6.0
    res = corollary_holder_check(streamed, s, t, params)
    w = g.node_weights()
    quotient = reference_quotient(streamed, threshold)[0]
    assert res.c1 == float(np.sum(np.abs(f) ** s * w) ** (1.0 / s)
                           / np.sqrt(eps))
    assert res.c2 == float(np.sum(quotient ** t * w) ** (1.0 / t))
    assert res.lhs == reference_curvature_norm(streamed, res.q0, threshold)[0]


def test_norm_report_matches_whole_grid(streamed):
    params = AnalysisParams(grad_threshold=0.05)
    rep = norm_report(streamed, params)
    mu, xi, grad_mag = reference_densities(streamed)[:3]
    w, f = streamed.grid.node_weights(), streamed.f.values
    lam, fraction = reference_curvature_norm(streamed, streamed.grid.ndim,
                                             0.05)
    assert rep.total_energy == float(np.sum(mu * w))
    assert rep.sup_u == float(np.max(np.abs(streamed.u.values)))
    assert (rep.lambda_hat, rep.excluded_mass_fraction) == (lam, fraction)
    assert rep.sup_eps_grad == float(streamed.epsilon * np.max(grad_mag))
    assert rep.xi_plus_mass == float(np.sum(np.maximum(xi, 0.0) * w))
    assert rep.xi_abs_mass == float(np.sum(np.abs(xi) * w))
    assert rep.f_l2_over_eps == float(np.sum(f ** 2 * w)) / streamed.epsilon
    assert integrate(density_fields(streamed).xi) == float(np.sum(xi * w))


def test_identity_integrands_and_sheet_match_whole_grid(streamed):
    g, eps = streamed.grid, streamed.epsilon
    c = np.full(g.ndim, 0.04)
    grad = reference_gradient(streamed)
    radial = sum((m - ci) * grad[i]
                 for i, (m, ci) in enumerate(zip(g.meshgrid(sparse=True), c)))
    mu, xi, _, grad_sq = reference_densities(streamed)
    terms = (mu, xi, eps * radial ** 2, radial * streamed.f.values)
    # the arrays on the index box of a ball (cut by the slabs anywhere) and
    # on the whole grid
    ball_box = fields._BallQuadrature(g, c, 4, 0.25).box
    for box in (ball_box, (slice(None),) * g.ndim):
        got = monotonicity._identity_integrands(streamed, c, box)
        for a, b in zip(got, (grad_sq, streamed.u.values, *terms[2:]),
                        strict=True):
            assert_same_bits(a, b[box])
    # the ball terms as the quadrature forms them, on the nodes it gathers
    # for each radius (full and band, in runs of planes): a last array of
    # node numbers says which nodes those are
    form = monotonicity._identity_densities(streamed)
    ids = np.arange(mu.size, dtype=float).reshape(g.shape)
    seen = []

    def formed(*gathered):
        nodes = gathered[-1].astype(int)
        seen.append(len(nodes))
        got = form(*gathered[:-1])
        for a, b in zip(got, terms, strict=True):
            assert_same_bits(a, b.reshape(-1)[nodes])
        return got

    radii = np.linspace(0.1, 0.25, 4)
    cols = fields.ball_integrals(
        g, lambda box: (*monotonicity._identity_integrands(streamed, c, box),
                        ids[box]), c, radii, 4, integrands=formed)
    assert sum(seen) > 0
    assert np.array_equal(cols, fields.ball_integrals(g, terms, c, radii, 4))
    # S_c on planes between and on grid planes of the last axis
    coords = g.axis_coords(g.ndim - 1)
    for t in (coords[3], 0.5 * (coords[5] + coords[6]),
              coords[-4] + 0.3 * g.h):
        def on_plane(v):
            return restrict_to_plane(ScalarField(g, v), t)
        ref = ((t - c[-1]) * on_plane(mu) - eps * on_plane(grad[-1])
               * on_plane(radial))
        got = monotonicity._sheet_integrand_on_plane(streamed, c, t)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_slab_generated_test_field_matches_whole(streamed):
    g = streamed.grid
    lazy = SmoothTestField(g, 5)
    whole = smooth_test_field(g, 5)
    for sl in fields._slabs(g):
        assert np.array_equal(lazy.planes(sl), whole.values[:, sl])
        assert np.array_equal(whole.planes(sl), whole.values[:, sl])
    assert np.array_equal(np.signbit(lazy.planes(slice(None))),
                          np.signbit(whole.values))
    # read a slab at a time, the generated field gives the numbers of the
    # whole one
    params = AnalysisParams(grad_threshold=1e-3)
    assert first_variation_identity(streamed, lazy, params) == \
        first_variation_identity(streamed, whole, params)
    for q in (1.5, 3.0, np.inf):
        assert eta_lq_norm(streamed, lazy, q) == eta_lq_norm(streamed, whole, q)
