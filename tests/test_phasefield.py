"""Potential, heteroclinic profile, layer constructions, and the solver."""

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg

from aclab import (Grid, LayerSpec, PERIODIC, ScalarField, SolverError,
                   ZERO_FLUX, build_layer_stack, build_radial_layer,
                   constants, double_well, double_well_prime, heteroclinic,
                   laplacian, make_state, manufactured_forcing,
                   solve_stationary)
from aclab import phasefield
from aclab.phasefield import double_well_second, residual_field


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


def test_heteroclinic_profile():
    q, dq = heteroclinic(0.0)
    assert q == 0.0 and dq == 1.0
    t = np.linspace(-20, 20, 1000)
    qs, dqs = heteroclinic(t)
    assert np.max(np.abs(dqs - np.sqrt(2.0 * double_well(qs)))) <= 1e-12


def test_heteroclinic_energy_by_quadrature():
    val, err = scipy.integrate.quad(lambda t: heteroclinic(t)[1] ** 2,
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
    with pytest.raises(ValueError, match="increasing"):
        LayerSpec(positions=(0.1, 0.1))
    spec = LayerSpec(positions=(-0.2, 0.0, 0.2))
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
    from aclab import density_fields, integrate, Region
    st = make_state(u, manufactured_forcing(u, eps), eps)
    total = integrate(density_fields(st).mu, Region.whole())
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
    assert phasefield.forcing_term(1.0, None, tol) == cap  # first step
    # Eisenstat-Walker choice 2: 0.9 (r_k/r_{k-1})^2, capped at 1e-4
    assert phasefield.forcing_term(1e-3, 1e-1, tol) == pytest.approx(9e-5)
    assert phasefield.forcing_term(0.5, 1.0, tol) == cap
    # near tol the floor 1e-3 tol/r_k keeps the last step from oversolving
    assert phasefield.forcing_term(1e-7, 1e-2, tol) == pytest.approx(1e-6)
    # and no step asks for less than the full linear solve's 1e-10
    assert phasefield.forcing_term(1e-6, 1e-1, 1e-14) == 1e-10


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


@pytest.mark.parametrize("boundary,points", [
    (ZERO_FLUX, (41,)), (ZERO_FLUX, (41, 41)), (ZERO_FLUX, (13, 13, 13)),
    (PERIODIC, (40,)), (PERIODIC, (40, 40)), (PERIODIC, (12, 12, 12))])
@pytest.mark.parametrize("pure_newton", [False, True])
def test_newton_linear_solve_matches_direct_solve(boundary, points,
                                                   pure_newton):
    g = centered_grid(points, boundary)
    eps = 3.0 * g.h
    u_star = build_radial_layer(g, eps, (0.0,) * g.ndim, 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(len(points))
    u = u_star.values + 0.01 * rng.standard_normal(g.shape)
    r = residual_field(ScalarField(g, u), f, eps)
    shift = 0.0 if pure_newton else 4.0 / eps  # 1/dtau at the first step
    diag = double_well_second(u) / eps + shift
    # (I/dtau - J) du = R, J = eps*lap_h - diag(W''(u))/eps
    mat = sp.diags(diag.ravel()) - eps * stencil_matrix(g)
    want = scipy.sparse.linalg.spsolve(mat.tocsc(), r.ravel())
    lap_mat = phasefield._laplacian_matrix(g.points, g.h, g.boundary)
    got = phasefield.spsolve(g, lap_mat, eps, diag, r).ravel()
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


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
