"""Potential, the tanh layer profile, layer constructions, and the
solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from aclab import (Grid, LayerSpec, PERIODIC, ScalarField, Scenario,
                   SolvedBubbleProfile, SolverError, ZERO_FLUX, build,
                   build_layer_stack, build_radial_layer, constants,
                   double_well, double_well_prime, make_state,
                   manufactured_forcing, solve_stationary)
from aclab import density_fields, fields, phasefield
from aclab.fields import laplacian
from aclab.phasefield import check_layer_fit, double_well_second


# ---------------------------------------------------------------- potential

def test_double_well_values():
    assert double_well(0.0) == pytest.approx(0.5)
    assert double_well(1.0) == 0.0
    assert double_well(-1.0) == 0.0
    assert double_well_prime(1.0) == 0.0
    assert double_well_prime(-1.0) == 0.0
    assert double_well_prime(0.0) == 0.0


def test_inflection_of_w_prime():
    # W'' vanishes at 1/sqrt(3); checked by central difference of W'
    t0 = constants().t0
    d = 1e-5
    second = (double_well_prime(t0 + d) - double_well_prime(t0 - d)) / (2 * d)
    assert abs(second) <= 1e-8
    assert t0 == pytest.approx(1.0 / np.sqrt(3.0))


# the layer profile of build_layer_stack and build_radial_layer is tanh,
# the heteroclinic q with q' = 1 - q^2 = sech^2

def test_heteroclinic_profile():
    assert np.tanh(0.0) == 0.0 and 1.0 - np.tanh(0.0) ** 2 == 1.0
    qs = np.tanh(np.linspace(-20, 20, 1000))
    dqs = 1.0 - qs * qs
    assert np.max(np.abs(dqs - np.sqrt(2.0 * double_well(qs)))) <= 1e-12


def test_heteroclinic_energy_by_quadrature():
    val, err = scipy.integrate.quad(lambda t: (1.0 - np.tanh(t) ** 2) ** 2,
                                    -40, 40, limit=200)
    assert err < 1e-8
    assert abs(val - 4.0 / 3.0) <= 1e-8


def test_constants_against_antiderivative_oracles():
    c = constants()
    # sigma: int_{-1}^{1} (1-s^2) ds = [s - s^3/3]
    sigma_oracle = (1 - 1 / 3) - (-1 + 1 / 3)
    # alpha: int sech^4 = [tanh - tanh^3/3] over the line
    alpha_oracle = (1 - 1 / 3) - (-1 + 1 / 3)
    assert abs(c.sigma - sigma_oracle) <= 1e-8
    assert abs(c.alpha - alpha_oracle) <= 1e-8
    assert c.alpha == pytest.approx(c.sigma, abs=1e-8)


# ---------------------------------------------------------------- layers

def grid1d(n=641, half=1.0):
    return Grid(extent=(2 * half,), points=(n,), boundary=ZERO_FLUX,
                origin=(-half,))


def test_layer_spec_validation():
    g = grid1d()
    for spec, match in ((LayerSpec(positions=(0.1, 0.1)), "increasing"),
                        (LayerSpec(positions=()), "at least one"),
                        (LayerSpec(positions=(0.0,), first_sign=2),
                         "first_sign")):
        with pytest.raises(ValueError, match=match):
            check_layer_fit(g, 0.02, spec)
        with pytest.raises(ValueError, match=match):
            build_layer_stack(g, 0.02, spec)
    spec = LayerSpec(positions=(-0.2, 0.0, 0.2))
    check_layer_fit(g, 0.02, spec)
    assert spec.orientations == (1, -1, 1)


def test_single_layer_shape():
    g = grid1d()
    eps = 0.05
    u = build_layer_stack(g, eps, LayerSpec(positions=(0.0,)))
    mid = g.points[0] // 2
    assert u.values[mid] == pytest.approx(0.0, abs=1e-12)
    assert u.values[0] == pytest.approx(-1.0, abs=1e-12)
    assert u.values[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("positions", [(-0.3, 0.0, 0.3), (-0.25, 0.25)])
def test_stack_sign_changes_and_bound(positions):
    g = grid1d()
    eps = 0.02
    u = build_layer_stack(g, eps, LayerSpec(positions=positions))
    signs = np.sign(u.values[np.abs(u.values) > 1e-9])
    changes = int(np.sum(np.abs(np.diff(signs)) > 0))
    assert changes == len(positions)
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-9


def test_stack_overlap_and_margin_errors():
    g = grid1d()
    with pytest.raises(ValueError, match="overlap"):
        build_layer_stack(g, 0.05, LayerSpec(positions=(0.0, 0.1)))
    with pytest.raises(ValueError, match="margin"):
        build_layer_stack(g, 0.05, LayerSpec(positions=(0.9,)))


def test_two_layer_energy_matches_single_layer_quadrature():
    # 2-d stack: total energy ~ 2 alpha per unit cross length
    eps = 0.02
    g = Grid(extent=(1.0, 1.0), points=(401, 401), boundary=ZERO_FLUX,
             origin=(-0.5, -0.5))
    u = build_layer_stack(g, eps, LayerSpec(positions=(-0.1, 0.1), axis=1))
    from aclab.fields import integrate
    st = make_state(u, manufactured_forcing(u, eps), eps)
    total = integrate(ScalarField(g, density_fields(st, ...)[0]))
    # oracle: per-layer 1-d energy by quadrature, decoupling error exp(-gap/eps)
    per_layer, _ = scipy.integrate.quad(
        lambda t: (1 - np.tanh(t / eps) ** 2) ** 2 / eps, -0.5, 0.5)
    oracle = 2.0 * per_layer * 1.0  # cross-sectional length 1
    assert abs(total - oracle) <= 0.01 * oracle


# ---------------------------------------------------------------- forcing

def test_manufactured_forcing_trivial_states():
    g = grid1d(129)
    for val in (1.0, 0.0):
        u = ScalarField(g, np.full(g.shape, val))
        f = manufactured_forcing(u, 0.1)
        assert np.max(np.abs(f.values)) == 0.0


def test_manufactured_forcing_circle_curvature(circle_state):
    # on the interface f ~ q'(0) * (1/R) = 2 for R = 0.5
    g = circle_state.grid
    i = int(round((0.5 - g.lo[0]) / g.h))
    j = int(round((0.0 - g.lo[1]) / g.h))
    assert circle_state.f.values[i, j] == pytest.approx(2.0, rel=0.10)
    assert circle_state.residual_norm == 0.0


def test_epsilon_floor_enforced():
    g = grid1d(64, half=0.5)
    u = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="eps >= 2h"):
        make_state(u, u, epsilon=g.h)


# ---------------------------------------------------------------- solver

def test_solver_recovers_manufactured_solution():
    eps = 0.1
    g = Grid(extent=(2.0, 2.0), points=(129, 129), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u_star = build_radial_layer(g, eps, (0.0, 0.0), 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(11)
    init = ScalarField(g, u_star.values + 0.01 * rng.standard_normal(g.shape))
    st = solve_stationary(g, eps, f, init, tol=1e-10, max_iter=40)
    assert np.max(np.abs(st.u.values - u_star.values)) <= 1e-6
    assert st.residual_norm <= 1e-10


def test_solver_exact_init_is_a_fixed_point():
    eps = 0.1
    g = grid1d(129)
    u_star = build_layer_stack(g, eps, LayerSpec(positions=(0.0,)))
    f = manufactured_forcing(u_star, eps)
    st = solve_stationary(g, eps, f, u_star, tol=1e-10)
    assert np.array_equal(st.u.values, u_star.values)


def test_solver_flow_basin_from_uniform_guess():
    # du/dt = -W'(u)/eps sends u0 = 0.3 to +1, not to the unstable root 0
    g = Grid(extent=(1.0,), points=(32,), boundary=ZERO_FLUX)
    f = ScalarField(g, np.zeros(g.shape))
    st = solve_stationary(g, 0.1, f, ScalarField(g, np.full(g.shape, 0.3)),
                          tol=1e-8, max_iter=60)
    assert st.u.values == pytest.approx(1.0, abs=1e-6)


def test_solver_reports_failure_with_best_residual():
    g = Grid(extent=(1.0,), points=(32,), boundary=ZERO_FLUX)
    f = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(SolverError) as info:
        solve_stationary(g, 0.1, f, ScalarField(g, np.full(g.shape, 0.3)),
                         tol=1e-14, max_iter=1)
    assert np.isfinite(info.value.best_residual)
    assert info.value.best_residual > 1e-14


def test_constants_are_the_closed_forms():
    # exactly 4/3, not a quadrature's last bit: test_nearest_k_round_half_up
    # (test_quantization.py) sets up a tie at theta = 1.5 alpha that rounds
    # to k = 2 at alpha = 4/3 and at the 1.333333333333333 that adaptive
    # quadrature gave, but to k = 1 one ulp above 4/3 (1.3333333333333335)
    c = constants()
    assert c.sigma == c.alpha == 4.0 / 3.0


def test_epsilon_of_exactly_2h_is_accepted():
    # h = 0.05 * 24 / 24 is 0.05000000000000001 in floats, so 2h is just
    # above 0.1; the check takes the same 1e-12 h slack as check_layer_fit
    g = Grid(extent=(0.05 * 24,), points=(25,), boundary=ZERO_FLUX)
    zero = ScalarField(g, np.zeros(g.shape))
    assert 2.0 * g.h > 0.1
    assert make_state(zero, zero, 0.1).epsilon == 0.1
    with pytest.raises(ValueError, match="epsilon=0.099 under-resolves the "
                       "grid: need eps >= 2h"):
        make_state(zero, zero, 0.099)


def test_solver_deterministic():
    eps = 0.1
    g = Grid(extent=(2.0, 2.0), points=(65, 65), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u_star = build_radial_layer(g, eps, (0.0, 0.0), 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(3)
    init = ScalarField(g, u_star.values + 0.01 * rng.standard_normal(g.shape))
    a = solve_stationary(g, eps, f, init, tol=1e-10)
    b = solve_stationary(g, eps, f, init, tol=1e-10)
    assert np.array_equal(a.u.values, b.u.values)


def test_forcing_term_rule():
    cap, tol = phasefield._FORCING_MAX, 1e-10
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    assert phasefield.forcing_term(1.0, None, tol) == cap  # first step
    # Eisenstat-Walker choice 2: 0.9 (r_k/r_{k-1})^phi, capped at 1e-4
    assert phasefield.forcing_term(1e-5, 1e-2, tol) == pytest.approx(
        0.9 * 1e-3 ** phi)
    assert phasefield.forcing_term(1e-3, 1e-1, tol) == cap  # 5.2e-4
    assert phasefield.forcing_term(0.5, 1.0, tol) == cap
    # near tol the floor 1e-3 tol/r_k keeps the last step from oversolving
    assert phasefield.forcing_term(1e-7, 1e-2, tol) == pytest.approx(1e-6)
    # and no step asks for less than the full linear solve's 1e-10
    assert phasefield.forcing_term(1e-6, 1e1, 1e-14) == 1e-10


def test_newton_steps_use_forcing_terms(monkeypatch):
    rtols = []

    def recording_minres(*args, rtol, **kwargs):
        rtols.append(rtol)
        return minres(*args, rtol=rtol, **kwargs)

    minres = phasefield.minres
    monkeypatch.setattr(phasefield, "minres", recording_minres)
    eps = 0.1
    g = Grid(extent=(2.0, 2.0), points=(65, 65), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u_star = build_radial_layer(g, eps, (0.0, 0.0), 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(3)
    init = ScalarField(g, u_star.values + 0.01 * rng.standard_normal(g.shape))
    st = solve_stationary(g, eps, f, init, tol=1e-10)
    assert st.residual_norm <= 1e-10
    assert rtols[0] == 1e-4
    assert all(1e-10 <= rt <= 1e-4 for rt in rtols)


@st.composite
def energy_problems(draw):
    """A grid of 1-3 axes on either boundary, of one slab or of at least 20
    (`fields._slabs`), eps, and node values u and f."""
    boundary = draw(st.sampled_from([ZERO_FLUX, PERIODIC]))
    ndim = draw(st.integers(1, 3))
    many = draw(st.booleans())
    lo, hi = ({1: (170_000, 200_000), 2: (412, 450), 3: (56, 60)} if many
              else {1: (8, 400), 2: (8, 40), 3: (8, 14)})[ndim]
    points = tuple(draw(st.integers(lo, hi)) for _ in range(ndim))
    h = 0.01
    g = Grid(extent=tuple(h * (n if boundary == PERIODIC else n - 1)
                          for n in points), points=points, boundary=boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (g, draw(st.floats(2.0, 6.0)) * h,
            rng.uniform(-1.5, 1.5, g.shape), rng.standard_normal(g.shape))


@settings(max_examples=30, deadline=None)
@given(energy_problems())
def test_resid_energy_is_the_whole_grid_expression_in_one_walk(problem):
    # R and F have the bits of the whole-grid Laplacian, density and
    # weighted sum, while every temporary besides R is slab-sized: on a
    # grid of many slabs, holding the Laplacian or the density whole would
    # trace a grid array more
    g, eps, u, f = problem
    lap = laplacian(ScalarField(g, u)).values
    want_r = eps * lap - double_well_prime(u) / eps - f
    want_f = float(np.sum((-0.5 * eps * u * lap + double_well(u) / eps
                           + f * u) * g.node_weights()))
    del lap
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        r, energy = phasefield._resid_energy(g, eps, u, f)
        extra = tracemalloc.get_traced_memory()[1] - base - r.nbytes
    finally:
        tracemalloc.stop()
    assert np.array_equal(r, want_r) and energy == want_f
    if len(fields._slabs(g)) >= 20:
        assert extra < 0.5 * r.nbytes, extra / r.nbytes


# ---------------------------------------------------------------- every boundary and dimension

def centered_grid(points, boundary):
    return Grid(extent=(2.0,) * len(points), points=points, boundary=boundary,
                origin=(-1.0,) * len(points))


def stencil_matrix(grid):
    """Direct-solve oracle: the discrete Laplacian assembled column by
    column from the stencil applied to unit vectors."""
    n = int(np.prod(grid.shape))
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(laplacian(ScalarField(grid, e.reshape(grid.shape)))
                    .values.ravel())
    return sp.csc_matrix(np.column_stack(cols))


NEWTON_SYSTEMS = [
    (ZERO_FLUX, (41,)), (ZERO_FLUX, (41, 41)), (ZERO_FLUX, (13, 13, 13)),
    (PERIODIC, (40,)), (PERIODIC, (40, 40)), (PERIODIC, (12, 12, 12))]


def newton_system(boundary, points, pure_newton):
    """A Newton system (I/dtau - J) du = R near a manufactured circle:
    the grid, eps, the state u, the diagonal W''(u)/eps + 1/dtau and R."""
    g = centered_grid(points, boundary)
    eps = 3.0 * g.h
    u_star = build_radial_layer(g, eps, (0.0,) * g.ndim, 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(len(points))
    u = u_star.values + 0.01 * rng.standard_normal(g.shape)
    r = (eps * laplacian(ScalarField(g, u)).values
         - double_well_prime(u) / eps - f.values)
    shift = 0.0 if pure_newton else 4.0 / eps  # 1/dtau at the first step
    return g, eps, u, double_well_second(u) / eps + shift, r


def direct_solve(g, eps, diag, r):
    """SuperLU on (I/dtau - J) du = R, J = eps*lap_h - diag(W''(u))/eps."""
    mat = sp.diags(diag.ravel()) - eps * stencil_matrix(g)
    return scipy.sparse.linalg.spsolve(mat.tocsc(), r.ravel())


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
@pytest.mark.parametrize("pure_newton", [False, True])
def test_newton_linear_solve_matches_direct_solve(boundary, points,
                                                   pure_newton):
    g, eps, _, diag, r = newton_system(boundary, points, pure_newton)
    want = direct_solve(g, eps, diag, r)
    got = phasefield.spsolve(g, eps, diag, r).ravel()
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
def test_a_scalar_shift_solves_the_shifted_system_bit_for_bit(boundary,
                                                              points):
    # pseudo-transient steps pass 1/dtau as `shift`, not as diag + 1/dtau
    g, eps, _, diag, r = newton_system(boundary, points, True)
    shift = 4.0 / eps
    got = phasefield.spsolve(g, eps, diag.copy(), r, shift=shift)
    want = phasefield.spsolve(g, eps, diag + shift, r)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("boundary", [ZERO_FLUX, PERIODIC])
@pytest.mark.parametrize("points", [(9,), (9, 10), (8, 9, 10)])
def test_face_scaling_is_the_unit_weight_product(boundary, points):
    # D = node_weights/h^d applied one axis at a time, on the faces only,
    # has the bits of the product with the whole table
    h = 0.125
    g = Grid(extent=tuple(h * (n if boundary == PERIODIC else n - 1)
                          for n in points), points=points, boundary=boundary)
    a = np.random.default_rng(len(points)).standard_normal(points)
    unit = fields._unit_weights(g)
    for factor, want in ((0.5, a * unit), (2.0, a / unit)):
        got = fields._scale_by_unit_weights(a.copy(), g, factor)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
def test_two_level_solve_matches_direct_solve(boundary, points):
    g, eps, u, diag, r = newton_system(boundary, points, True)
    coarse = phasefield.InterfaceSpace(g, eps, u)
    assert coarse.weights.size  # some interface modes are lifted
    want = direct_solve(g, eps, diag, r)
    got = phasefield.spsolve(g, eps, diag, r, coarse=coarse).ravel()
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def minres_arguments(monkeypatch, *args, **kwargs):
    """The (matvec, psolve, b) and keywords spsolve hands to minres; b is
    copied, as its buffer is matvec's third product."""
    calls = []

    def recording_minres(matvec, psolve, b, **kw):
        calls.append(((matvec, psolve, b.copy()), kw))
        return minres(matvec, psolve, b, **kw)

    minres = phasefield.minres
    monkeypatch.setattr(phasefield, "minres", recording_minres)
    phasefield.spsolve(*args, **kwargs)
    monkeypatch.setattr(phasefield, "minres", minres)
    return calls[0]


@st.composite
def operator_problems(draw):
    """A grid of 1-3 axes of 8 (the smallest allowed) or more points, odd
    and even, on either boundary; eps; a diagonal; and a vector x."""
    boundary = draw(st.sampled_from([ZERO_FLUX, PERIODIC]))
    ndim = draw(st.integers(1, 3))
    points = tuple(draw(st.integers(8, 12 if ndim == 3 else 21))
                   for _ in range(ndim))
    h = 0.1
    g = Grid(extent=tuple(h * (n if boundary == PERIODIC else n - 1)
                          for n in points), points=points, boundary=boundary)
    eps = draw(st.floats(2.0, 6.0)) * h
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    diag = (2.0 + rng.uniform(-1.0, 1.0, g.shape)) / eps
    return g, eps, diag, rng.standard_normal(g.shape)


@settings(max_examples=40, deadline=None)
@given(operator_problems())
def test_fused_operator_equals_the_laplacian_form(problem):
    # the matvec's centre*x - D*((eps/h^2) S(x)) is D*(diag*x - eps*lap_h x)
    # with the sum in another order
    g, eps, diag, x = problem
    with pytest.MonkeyPatch.context() as mp:
        (matvec, _, _), _ = minres_arguments(mp, g, eps, diag.copy(), x)
    d = g.node_weights() / g.h ** g.ndim
    want = (d * (diag * x - eps * laplacian(ScalarField(g, x)).values)).ravel()
    got = matvec(x.ravel())
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# Zero-flux shapes: odd, even and non-square; (17, 9) and (17, 9, 33) cut
# axis 0 into chunks of 2 planes, the last of one line (of one plane of
# lines in 3-d); at 2732 points 1/(2 * 2731) rounded from long double is
# not 1/5462 rounded from double.
COSINE_SHAPES = [(8,), (129,), (2732,), (16, 20), (33, 17), (17, 9),
                 (8, 9, 10), (17, 9, 33)]


@pytest.mark.parametrize("shape", COSINE_SHAPES)
def test_cosine_transform_has_scipys_bits(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape)
    symbol = 1.0 + rng.random(shape)
    dct = phasefield._CosineTransform(shape)
    forward = dct(x.copy())
    assert forward.tobytes() == scipy.fft.dctn(x, type=1).tobytes()
    pair = dct(forward * symbol, inverse=True)
    want = scipy.fft.idctn(scipy.fft.dctn(x, type=1) * symbol, type=1)
    assert pair.tobytes() == want.tobytes()


def test_cosine_transform_chunks_may_hold_one_line():
    shape = (17, 9)
    dct = phasefield._CosineTransform(shape)
    x = np.empty(shape)
    lines = [x[block].size // shape[ax] for ax, block, *_ in dct.chunks]
    assert min(lines) == 1 and max(lines) == 2
    assert len(dct.chunks) == 9 + 9  # axis 0 by columns, axis 1 by pairs


@settings(max_examples=40, deadline=None)
@given(operator_problems())
def test_preconditioner_inverts_the_transform_operator(problem):
    # psolve is (D*P)^{-1}, P = c*I - eps*lap_h and c = max|diag|, on
    # either boundary: this pins the symbols and the inverses' scaling
    g, eps, diag, x = problem
    with pytest.MonkeyPatch.context() as mp:
        (_, psolve, _), _ = minres_arguments(mp, g, eps, diag.copy(), x)
    c = float(np.max(np.abs(diag)))
    d = g.node_weights() / g.h ** g.ndim
    dpx = d * (c * x - eps * laplacian(ScalarField(g, x)).values)
    got = psolve(dpx.ravel()).reshape(g.shape)
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


def check_against_scipy_minres(matvec, psolve, b, kwargs):
    """scipy's MINRES is the oracle: on the same operator, preconditioner
    and tolerance it stops at the same iteration with the same solution."""
    got, iterations = phasefield.minres(matvec, psolve, b, **kwargs)
    n = b.size
    scipy_iterations = []
    want, info = scipy.sparse.linalg.minres(
        scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec), b,
        M=scipy.sparse.linalg.LinearOperator((n, n), matvec=psolve),
        rtol=kwargs["rtol"], maxiter=kwargs["maxiter"],
        callback=lambda xk: scipy_iterations.append(1))
    assert info == 0
    assert iterations == len(scipy_iterations)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
@pytest.mark.parametrize("pure_newton", [False, True])
def test_minres_matches_scipy_minres(boundary, points, pure_newton,
                                     monkeypatch):
    g, eps, _, diag, r = newton_system(boundary, points, pure_newton)
    (matvec, psolve, b), kwargs = minres_arguments(monkeypatch, g, eps,
                                                   diag, r)
    check_against_scipy_minres(matvec, psolve, b, kwargs)


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
def test_two_level_minres_matches_scipy_minres(boundary, points,
                                               monkeypatch):
    g, eps, u, diag, r = newton_system(boundary, points, True)
    (matvec, psolve, b), kwargs = minres_arguments(
        monkeypatch, g, eps, diag, r,
        coarse=phasefield.InterfaceSpace(g, eps, u))
    # Near convergence the two-level Lanczos vectors follow the summation
    # order of the inner products (numpy's einsum here, BLAS in scipy): on
    # the periodic 40^2 system it alone makes 23 iterations of 21. With
    # scipy's inner product the recurrences must agree exactly.
    monkeypatch.setattr(phasefield, "_dot",
                        lambda a, c: float(np.inner(a, c)))
    check_against_scipy_minres(matvec, psolve, b, kwargs)


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
def test_two_level_preconditioner_is_symmetric_positive_definite(
        boundary, points, monkeypatch):
    g, eps, u, diag, r = newton_system(boundary, points, True)
    (_, plain, _), _ = minres_arguments(monkeypatch, g, eps, diag.copy(), r)
    (_, psolve, _), _ = minres_arguments(
        monkeypatch, g, eps, diag, r,
        coarse=phasefield.InterfaceSpace(g, eps, u))
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((6, r.size))
    for x, y in zip(xs, xs[1:]):
        xpy, ypx = x @ psolve(y.copy()), y @ psolve(x.copy())
        scale = np.linalg.norm(x) * np.linalg.norm(psolve(y.copy()))
        assert abs(xpy - ypx) <= 1e-12 * scale
    for x in xs:
        # the correction is positive semidefinite and not zero
        assert x @ psolve(x.copy()) >= x @ plain(x.copy()) > 0
    assert any(x @ psolve(x.copy()) > (1 + 1e-6) * (x @ plain(x.copy()))
               for x in xs)


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
def test_interface_space_is_a_ritz_basis(boundary, points):
    # the separable Galerkin sums must equal products with the stencil: the
    # kept columns of Q Y are M-orthonormal, diagonalise A with Ritz values
    # under 1/2, and carry the weights 1/(2|lam|) - 1
    g, eps, u, diag, _ = newton_system(boundary, points, True)
    space = phasefield.InterfaceSpace(g, eps, u)
    d = g.node_weights() / g.h ** g.ndim
    c = np.max(np.abs(diag))

    def column(k):
        y = space.basis[:, k].reshape(space.shape)
        return space.g * phasefield._expand(y, space.modes,
                                            out=np.empty(g.shape))

    qy = [column(k) for k in range(space.weights.size)]
    lap = [laplacian(ScalarField(g, q)).values for q in qy]
    gram = np.array([[np.sum(d * a * (c * b - eps * lb)) for b, lb
                      in zip(qy, lap)] for a in qy])
    ritz = np.array([[np.sum(d * a * (diag * b - eps * lb)) for b, lb
                      in zip(qy, lap)] for a in qy])
    assert np.abs(gram - np.eye(len(qy))).max() <= 1e-10
    lam = np.diag(ritz)
    assert np.abs(ritz - np.diag(lam)).max() <= 1e-10
    assert np.all(np.abs(lam) < 0.5)
    assert space.weights == pytest.approx(0.5 / np.abs(lam) - 1.0,
                                          rel=1e-8)


@pytest.mark.parametrize("boundary,points", NEWTON_SYSTEMS)
def test_interface_weight_is_the_density_gradient_magnitude(boundary,
                                                            points):
    # one |grad_h u|: the coarse space's weight g is the square root of
    # the squares of the central-difference gradient summed in axis order,
    # the |grad u|^2 every analysis forms where it reads it
    g, eps, u, _, _ = newton_system(boundary, points, True)
    grad_sq = np.sum(fields.gradient(ScalarField(g, u)).values ** 2, axis=0)
    space = phasefield.InterfaceSpace(g, eps, u)
    assert np.array_equal(space.g, np.sqrt(grad_sq))


def test_interface_free_state_uses_the_plain_preconditioner(monkeypatch):
    # u = 1 everywhere: g = |grad u| = 0, so the coarse space is empty
    g = centered_grid((41, 41), ZERO_FLUX)
    eps = 3.0 * g.h
    u = np.ones(g.shape)
    diag = double_well_second(u) / eps
    r = np.random.default_rng(2).standard_normal(g.shape)
    space = phasefield.InterfaceSpace(g, eps, u)
    assert space.weights.size == 0
    got = phasefield.spsolve(g, eps, diag.copy(), r, coarse=space)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, phasefield.spsolve(g, eps, diag, r))


@pytest.mark.parametrize("boundary,points", [
    (ZERO_FLUX, (9,)), (ZERO_FLUX, (9, 9)), (PERIODIC, (8, 8, 8))])
def test_laplacian_matrix_equals_the_stencil(boundary, points):
    # the solver applies the stencil; the CSR matrix stays only as a name
    # the benchmark's tracer binds
    g = centered_grid(points, boundary)
    want = stencil_matrix(g).toarray()
    got = phasefield._laplacian_matrix(g.points, g.h, g.boundary).toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_two_level_preconditioner_cuts_the_newton_tail(monkeypatch):
    # a 161^2 bubble at eps = 4h: the pure-Newton tail takes at least 2x
    # fewer MINRES iterations with the interface coarse space than without
    g = centered_grid((161, 161), ZERO_FLUX)
    eps = 0.05
    force = constants().alpha / (2.0 * 0.5)
    f = ScalarField(g, np.full(g.shape, force))
    dist = phasefield.signed_distance_ball(g, (0.0, 0.0), 0.5)
    init = ScalarField(g, np.tanh(dist / eps) + eps * force / 4.0)
    spsolve, minres = phasefield.spsolve, phasefield.minres
    tails = {}
    for use_coarse in (True, False):
        steps = []

        def recording_spsolve(*args, coarse=None, **kwargs):
            steps.append([coarse is not None, 0])
            return spsolve(*args, coarse=coarse if use_coarse else None,
                           **kwargs)

        def recording_minres(*args, **kwargs):
            x, iterations = minres(*args, **kwargs)
            steps[-1][1] = iterations
            return x, iterations

        monkeypatch.setattr(phasefield, "spsolve", recording_spsolve)
        monkeypatch.setattr(phasefield, "minres", recording_minres)
        st = solve_stationary(g, eps, f, init)
        assert st.residual_norm <= 1e-10
        tails[use_coarse] = sum(its for pure, its in steps if pure)
    assert 0 < 2 * tails[True] <= tails[False]


def test_solver_periodic_2d():
    eps = 0.1
    g = centered_grid((96, 96), PERIODIC)
    u_star = build_radial_layer(g, eps, (0.0, 0.0), 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(5)
    init = ScalarField(g, u_star.values + 0.01 * rng.standard_normal(g.shape))
    st = solve_stationary(g, eps, f, init, tol=1e-10)
    assert st.residual_norm <= 1e-10
    assert np.max(np.abs(st.u.values - u_star.values)) <= 1e-6


@pytest.mark.parametrize("points, boundary", [
    ((81, 81), ZERO_FLUX), ((80, 80), PERIODIC)],
    ids=["zero-flux", "periodic"])
def test_a_solved_state_keeps_the_residual_make_state_forms(points,
                                                            boundary):
    # the solve records the residual its last step's test measured;
    # make_state forms it again from u, f and eps, with the same bits
    st, = build(Scenario(
        name="bubble", grid=centered_grid(points, boundary), epsilons=(0.1,),
        profile=SolvedBubbleProfile(center=(0.0, 0.0), radius=0.5)))
    assert st.residual_norm <= 1e-10
    assert st.residual_norm == make_state(st.u, st.f,
                                          st.epsilon).residual_norm


@pytest.mark.filterwarnings("error")
def test_a_guess_of_non_finite_residual_is_refused_before_a_linear_solve(
        monkeypatch):
    # W'(u) of u = 1e300 overflows: MINRES would return a NaN step
    def no_solve(*args, **kwargs):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(phasefield, "spsolve", no_solve)
    g = centered_grid((41, 41), ZERO_FLUX)
    with pytest.raises(SolverError, match="initial guess's residual is not "
                       "finite") as info:
        solve_stationary(g, 0.1, ScalarField(g, np.zeros(g.shape)),
                         ScalarField(g, np.full(g.shape, 1e300)))
    assert not np.isfinite(info.value.best_residual)


def test_a_linear_solve_that_breaks_down_is_refused_by_name():
    # R(u) of u = 1e90 is finite (1e271), but MINRES's r.M^-1 r overflows
    # and its step is NaN; warnings are errors in this suite
    g = centered_grid((41, 41), ZERO_FLUX)
    with pytest.raises(SolverError, match="the linear solve at residual "
                       "1.000e[+]271 gave a non-finite step") as info:
        solve_stationary(g, 0.2, ScalarField(g, np.zeros(g.shape)),
                         ScalarField(g, np.full(g.shape, 1e90)))
    assert info.value.best_residual == pytest.approx(1e271)


def test_a_step_no_pseudo_timestep_accepts_is_refused(monkeypatch):
    # a step of 10 everywhere raises the residual and the energy at every
    # dtau, so dtau falls from eps/4 past its floor of 1e-14
    monkeypatch.setattr(phasefield, "spsolve",
                        lambda grid, *args, **kwargs: np.full(grid.shape, 10.0))
    g = centered_grid((41, 41), ZERO_FLUX)
    with pytest.raises(SolverError, match="pseudo-timestep underflow at "
                       "residual 1.986e[+]00"):
        solve_stationary(g, 0.2, ScalarField(g, np.full(g.shape, 0.5)),
                         build_radial_layer(g, 0.2, (0.0, 0.0), 0.5))


def test_solver_refuses_a_tolerance_not_positive_and_fields_off_its_grid():
    g = centered_grid((41, 41), ZERO_FLUX)
    other = centered_grid((33, 33), ZERO_FLUX)
    zero = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_stationary(g, 0.2, zero, zero, tol=0)
    for f, guess in ((zero, ScalarField(other, np.zeros(other.shape))),
                     (ScalarField(other, np.zeros(other.shape)), zero)):
        with pytest.raises(ValueError,
                           match="fields must live on the target grid"):
            solve_stationary(g, 0.2, f, guess)


def test_a_state_refuses_two_grids_and_a_residual_not_finite():
    g = centered_grid((41, 41), ZERO_FLUX)
    zero = ScalarField(g, np.zeros(g.shape))
    other = centered_grid((33, 33), ZERO_FLUX)
    with pytest.raises(ValueError, match="u and f must share a grid"):
        phasefield.PhaseFieldState(
            zero, ScalarField(other, np.zeros(other.shape)), 0.2, 0.0)
    with pytest.raises(ValueError, match="residual_norm must be finite"):
        phasefield.PhaseFieldState(zero, zero, 0.2, np.nan)


def test_minres_refuses_an_indefinite_preconditioner_and_a_zero_rhs_is_0():
    def never(v):
        raise AssertionError("a matvec ran")

    with pytest.raises(ValueError, match="indefinite preconditioner"):
        phasefield.minres(never, lambda r: -r, np.ones(4), 1e-10, 10)
    x, iterations = phasefield.minres(never, lambda r: r, np.zeros(4),
                                      1e-10, 10)
    assert iterations == 0 and np.array_equal(x, np.zeros(4))


def test_solver_1d_two_layers_from_far_guess():
    eps = 0.05
    g = grid1d(201)
    u_star = build_layer_stack(g, eps, LayerSpec(positions=(-0.3, 0.3)))
    f = manufactured_forcing(u_star, eps)
    init = ScalarField(g, np.clip(2.0 * u_star.values, -0.5, 0.5))
    st = solve_stationary(g, eps, f, init, tol=1e-10)
    assert st.residual_norm <= 1e-10
    assert np.max(np.abs(st.u.values - u_star.values)) <= 1e-6


def test_solver_3d_sphere():
    eps = 0.15
    g = centered_grid((33, 33, 33), ZERO_FLUX)
    u_star = build_radial_layer(g, eps, (0.0, 0.0, 0.0), 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(7)
    init = ScalarField(g, u_star.values + 0.01 * rng.standard_normal(g.shape))
    st = solve_stationary(g, eps, f, init, tol=1e-10)
    assert st.residual_norm <= 1e-10
    assert np.max(np.abs(st.u.values - u_star.values)) <= 1e-6
