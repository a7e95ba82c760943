"""Every whole-grid integrand is built one slab of axis-0 planes at a time
and summed slab by slab along numpy's own pairwise tree
(`fields._PairwiseSums`), with no whole-grid buffer; the gradient and the
Laplacian of u, the node weights, the forcing and the residual are built a
slab at a time, and |grad u|^2, and from it mu, xi and |grad u|, are
formed on the nodes they are read on. Each streamed number must equal,
bit for bit, the whole-grid computation it replaced; those computations
are kept here as the references; the one walk of `first_variations` over
many test fields must give each field's numbers of the one-field forms.
Slabs of 1, 2 and 3 planes and the whole grid, on 1-d, 2-d and 3-d,
zero-flux and periodic grids."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aclab import (AnalysisParams, Grid, PERIODIC, ScalarField,
                   SmoothTestField, VectorField, ZERO_FLUX, build_radial_layer,
                   corollary_holder_check, density_fields,
                   diffuse_mean_curvature_norm, double_well,
                   double_well_prime, first_variation_identity,
                   interpolate, make_state, manufactured_forcing,
                   norm_report, smooth_test_field)
from aclab import fields, measures, monotonicity
from aclab.fields import gradient, integrate, laplacian, restrict_to_plane
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


@settings(max_examples=60, deadline=None)
@given(shape_boundary=grids(11),
       coef=st.lists(st.integers(-4, 4), min_size=10, max_size=10))
def test_gradient_is_exact_on_quadratics_in_the_interior(shape_boundary,
                                                         coef):
    """On a polynomial of degree <= 2 the central difference is exact away
    from the boundary ghosts: b_i + sum_j a_ij x_j (+ a_ii x_i again), as
    in the Laplacian's test above; exact on the dyadic grid, so ==."""
    points, boundary = shape_boundary
    g = dyadic_grid(points, boundary)
    x = g.meshgrid()
    nd = g.ndim
    pairs = [(i, j) for i in range(nd) for j in range(i, nd)]
    quad = coef[4:]
    p = coef[0] + sum(coef[1 + i] * x[i] for i in range(nd))
    p = p + sum(quad[k] * x[i] * x[j] for k, (i, j) in enumerate(pairs))
    interior = (slice(1, -1),) * nd
    got = gradient(ScalarField(g, p)).values
    for axis in range(nd):
        want = coef[1 + axis] + sum(
            quad[k] * (x[j] * (i == axis) + x[i] * (j == axis))
            for k, (i, j) in enumerate(pairs))
        assert np.all(got[axis][interior] == want[interior])


@settings(max_examples=60, deadline=None)
@given(points=st.integers(1, 3).flatmap(lambda nd: st.lists(
           st.integers(8, 11), min_size=nd, max_size=nd).map(tuple)),
       data=st.data())
def test_stencils_are_exact_at_zero_flux_faces_on_even_polynomials(points,
                                                                    data):
    """A zero-flux ghost mirrors the node next to the face, so on a
    polynomial even about one face of each axis, c + sum_i a_i y_i^2 +
    sum_{i<j} b_ij y_i^2 y_j^2 with y_i the distance to that face, the
    Laplacian and the gradient are exact on that face as in the interior
    (only the opposite face, where it is not even, is left out)."""
    g = dyadic_grid(points, ZERO_FLUX)
    nd = g.ndim
    far = data.draw(st.lists(st.booleans(), min_size=nd, max_size=nd))
    face = [(n - 1) * g.h if f else 0.0 for n, f in zip(points, far)]
    y = [xi - fi for xi, fi in zip(g.meshgrid(), face)]
    a = data.draw(st.lists(st.integers(-4, 4), min_size=nd + 1,
                           max_size=nd + 1))
    pairs = [(i, j) for i in range(nd) for j in range(i + 1, nd)]
    b = data.draw(st.lists(st.integers(-4, 4), min_size=len(pairs),
                           max_size=len(pairs)))
    sq = [yi * yi for yi in y]
    p = a[0] + sum(a[1 + i] * sq[i] for i in range(nd))
    lap = sum(2.0 * a[1 + i] for i in range(nd)) + np.zeros(g.shape)
    grad = [2.0 * a[1 + i] * y[i] for i in range(nd)]
    for k, (i, j) in enumerate(pairs):
        p = p + b[k] * sq[i] * sq[j]
        lap = lap + 2.0 * b[k] * (sq[i] + sq[j])
        grad[i] = grad[i] + 2.0 * b[k] * y[i] * sq[j]
        grad[j] = grad[j] + 2.0 * b[k] * sq[i] * y[j]
    # every node but those on the face opposite the even one
    kept = tuple(slice(None, -1) if not f else slice(1, None) for f in far)
    f = ScalarField(g, p)
    assert np.all(laplacian(f).values[kept] == lap[kept])
    got = gradient(f).values
    for axis in range(nd):
        assert np.all(got[axis][kept] == grad[axis][kept])


# ---------------------------------------------------------------- tests

def test_slab_gradient_matches_whole_grid(streamed):
    g, u = streamed.grid, streamed.u.values
    rest = (slice(None),) * (g.ndim - 1)
    ref = reference_gradient(streamed)
    whole = gradient(streamed.u).values
    assert_same_bits(whole, ref)
    for sl in fields._slabs(g):
        assert_same_bits(fields._gradient_box(u, g, (sl, *rest)),
                         whole[:, sl])
    # one plane of the last axis at a time, as the sheet integrand forms
    # grad u on the two planes around {x_last = t}: the ends mirror or wrap
    for k in range(g.shape[-1]):
        plane = fields._gradient_box(u, g, (*rest, slice(k, k + 1)))
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


@st.composite
def grad_sq_node_sets(draw):
    """Node values on a 1-, 2- or 3-d grid of spacing 0.1, and the node
    sets readers form |grad u|^2 on: a slab of axis-0 planes, the whole
    grid, and index arrays holding both face nodes of every axis, where the
    mirror or wrap ghost is read."""
    ndim = draw(st.sampled_from((1, 2, 3)))
    boundary = draw(st.sampled_from((ZERO_FLUX, PERIODIC)))
    top = {1: 40, 2: 20, 3: 12}[ndim]
    points = tuple(draw(st.integers(8, top)) for _ in range(ndim))
    extent = tuple(0.1 * (n if boundary == PERIODIC else n - 1)
                   for n in points)
    g = Grid(extent=extent, points=points, boundary=boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    lo = draw(st.integers(0, points[0] - 1))
    slab = slice(lo, draw(st.integers(lo + 1, points[0])))
    count = draw(st.integers(2 * ndim, 40))
    nodes = tuple(rng.integers(0, n, count) for n in points)
    for ax, n in enumerate(points):
        nodes[ax][2 * ax:2 * ax + 2] = 0, n - 1
    return (g, rng.uniform(-1.5, 1.5, g.shape),
            [slab, ..., nodes])


@settings(max_examples=60, deadline=None)
@given(grad_sq_node_sets())
def test_grad_sq_on_any_nodes_matches_whole_grid(problem):
    g, u, node_sets = problem
    whole = fields._grad_sq_at(u, g, ...)
    grad = np.empty((g.ndim,) + g.shape)
    for ax in range(g.ndim):
        fields._central_difference(u, g, ax, grad[ax])
    assert_same_bits(whole, np.sum(grad * grad, axis=0))
    for idx in node_sets:
        assert_same_bits(fields._grad_sq_at(u, g, idx), whole[idx])


def test_density_fields_match_whole_grid(streamed):
    mu, xi, grad_mag, grad_sq = reference_densities(streamed)
    whole_grad_sq = fields._grad_sq_at(streamed.u.values, streamed.grid, ...)
    assert_same_bits(whole_grad_sq, grad_sq)
    got = (*density_fields(streamed, ...), np.sqrt(whole_grad_sq))
    for a, ref in zip(got, (mu, xi, grad_mag), strict=True):
        assert_same_bits(a, ref)
    for sl in fields._slabs(streamed.grid):
        for a, ref in zip(density_fields(streamed, sl), (mu, xi), strict=True):
            assert_same_bits(a, ref[sl])
    # mu read on the corners of an interpolation stencil, as the lines
    # read it
    g = streamed.grid
    lazy_mu = fields._LazyField(g, lambda idx: density_fields(streamed, idx)[0])
    pts = np.random.default_rng(3).uniform(g.lo, g.hi, (50, g.ndim))
    assert_same_bits(interpolate(lazy_mu, pts),
                     interpolate(ScalarField(g, mu), pts))


def test_density_fields_refuses_other_indices(streamed):
    # public input: an index of none of the three node shapes is refused,
    # by a message that names them
    g = streamed.grid
    for idx in ((..., 3), slice(0, g.points[0], 2)):
        with pytest.raises(IndexError, match="slice of axis-0 planes of "
                           "step 1, `...` or a tuple of"):
            density_fields(streamed, idx)


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
    xi_field = ScalarField(streamed.grid, density_fields(streamed, ...)[1])
    assert integrate(xi_field) == float(np.sum(xi * w))


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
        for a, b in zip(got, (grad_sq, streamed.u.values, radial,
                              streamed.f.values), strict=True):
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


def assert_same_float(got, want):
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("q", [None, 1.5, np.inf])
def test_one_walk_gives_each_fields_numbers(streamed, q):
    # the walk over all fields against first_variation_identity and
    # eta_lq_norm per field, bit for bit: on the fixture's slabs, on slabs
    # shrunk for the number of fields (a share of 1 makes _slab_nodes up
    # to 8 slabs' worth), and in walks of two fields at a time
    g = streamed.grid
    params = AnalysisParams(grad_threshold=1e-3)
    etas = [SmoothTestField(g, 5), SmoothTestField(g, 6),
            smooth_test_field(g, 7)]
    want = [(first_variation_identity(streamed, eta, params),
             None if q is None else eta_lq_norm(streamed, eta, q))
            for eta in etas]
    with mock.patch.object(fields, "_SLAB_SHARE", 1):
        shrunk = measures.first_variations(streamed, etas, params, q)
    with mock.patch.object(measures, "_WALK_FIELDS", 2):
        paired = measures.first_variations(streamed, etas, params, q)
    for got in (measures.first_variations(streamed, etas, params, q),
                shrunk, paired):
        assert len(got) == len(etas)
        for (res, norm), (res_want, norm_want) in zip(got, want):
            for name in ("lhs", "rhs", "residual", "forcing_term",
                         "discrepancy_term"):
                assert_same_float(getattr(res, name), getattr(res_want, name))
            if q is None:
                assert norm is None
            else:
                assert_same_float(norm, norm_want)


def test_one_walk_refuses_a_field_off_its_support_before_any_result(streamed):
    # the second of three fields is 1 on a node of the first face layer: a
    # zero-flux grid refuses the walk, a periodic one takes it
    g = streamed.grid
    values = np.zeros((g.ndim,) + g.shape)
    values[(0,) * (g.ndim + 1)] = 1.0
    etas = [SmoothTestField(g, 5), VectorField(g, values),
            SmoothTestField(g, 6)]
    if g.boundary == PERIODIC:
        assert len(measures.first_variations(streamed, etas, q=2.0)) == 3
        return
    for fields_per_walk in (1, 2, 8):
        with mock.patch.object(measures, "_WALK_FIELDS", fields_per_walk), \
                pytest.raises(ValueError, match="vanish within 4h"):
            measures.first_variations(streamed, etas, q=2.0)
