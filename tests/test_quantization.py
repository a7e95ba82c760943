"""Layer detection and integer quantization of line energy."""

import numpy as np
from scipy.integrate import trapezoid
import pytest

from aclab import (Grid, Line, ScalarField, ZERO_FLUX, constants,
                   detect_layers, line_sample, make_state,
                   quantization_check)


def axis_line(t_lo=-0.45, t_hi=0.45, samples=361, x0=0.0):
    return Line(base=(x0, 0.0), direction=(0.0, 1.0), t_lo=t_lo, t_hi=t_hi,
                samples=samples)


# ---------------------------------------------------------------- detect

def test_detect_no_layers():
    t = np.linspace(-1, 1, 201)
    samples = np.column_stack([t, np.ones_like(t)])
    assert detect_layers(samples, tau=0.1, epsilon=0.05) == []


def test_detect_single_layer_contains_crossing():
    eps = 0.05
    t = np.linspace(-1, 1, 401)
    samples = np.column_stack([t, np.tanh(t / eps)])
    windows = detect_layers(samples, tau=0.1, epsilon=eps)
    assert len(windows) == 1
    lo, hi = windows[0]
    assert lo < 0.0 < hi


def test_detect_three_disjoint_windows():
    # window half-width oracle: eps*artanh(1-tau) + 3 eps < gap/2
    eps = 0.02
    tau = 0.1
    positions = (-0.2, 0.0, 0.2)
    t = np.linspace(-0.7, 0.7, 1401)
    u = sum(s * np.tanh((t - p) / eps)
            for s, p in zip((1, -1, 1), positions))
    samples = np.column_stack([t, u])
    windows = detect_layers(samples, tau=tau, epsilon=eps)
    assert len(windows) == 3
    half_width = eps * np.arctanh(1 - tau) + 3 * eps
    assert half_width < 0.1  # oracle guaranteeing disjointness
    for (a, b), (c, d) in zip(windows, windows[1:]):
        assert b < c


def test_detect_reflection_invariance(stack3_state):
    eps = stack3_state.epsilon
    fwd = line_sample(stack3_state.u, (0.0, 0.0), (0.0, 1.0), 481, -0.6, 0.6)
    bwd = line_sample(stack3_state.u, (0.0, 0.0), (0.0, -1.0), 481, -0.6, 0.6)
    wf = detect_layers(fwd, tau=0.1, epsilon=eps)
    wb = detect_layers(bwd, tau=0.1, epsilon=eps)
    assert len(wf) == len(wb) == 3
    mirrored = sorted((-hi, -lo) for lo, hi in wb)
    np.testing.assert_allclose(np.array(mirrored), np.array(wf), atol=1e-9)


# ---------------------------------------------------------------- checks

def test_a_line_needs_three_samples_and_a_check_one_line():
    with pytest.raises(ValueError, match="need at least 3 samples per line"):
        axis_line(samples=2)
    g = Grid(extent=(2.0, 2.0), points=(81, 81), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    zero = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="need at least one line"):
        quantization_check(make_state(zero, zero, 0.1), [])


def test_quantization_pure_phase():
    g = Grid(extent=(2.0, 2.0), points=(81, 81), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u = ScalarField(g, np.ones(g.shape))
    st = make_state(u, ScalarField(g, np.zeros(g.shape)), 0.1)
    rep = quantization_check(st, [axis_line(-0.8, 0.8, 321)], tau=0.1)
    row = rep.rows[0]
    assert row.layer_count == 0
    assert row.theta_hat == 0.0
    assert row.nearest_k == 0
    assert row.quantization_residual == 0.0


def test_quantization_two_layer_stack(stack2_state):
    alpha = constants().alpha
    lines = [axis_line(x0=x) for x in (-0.3, -0.15, 0.0, 0.15, 0.3)]
    rep = quantization_check(stack2_state, lines, tau=0.1)
    assert all(r.layer_count == 2 for r in rep.rows)
    assert abs(rep.mean_theta_hat - 2 * alpha) <= 0.01 * 2 * alpha
    for row in rep.rows:
        for pot in row.potential_per_layer:
            assert abs(pot - alpha / 2) <= 0.02 * alpha / 2


def test_quantization_circle_radial_lines(circle_state):
    lines = [Line(base=(0.0, 0.0), direction=(np.cos(a), np.sin(a)),
                  t_lo=0.0, t_hi=0.9, samples=721)
             for a in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    rep = quantization_check(circle_state, lines, tau=0.1)
    assert all(r.nearest_k == 1 for r in rep.rows)
    assert rep.max_residual <= 0.05


def test_line_window_mass_concentration(stack2_state):
    # transition windows carry nearly all of the line energy
    from aclab import density_fields
    from aclab.fields import _LazyField
    lazy_mu = _LazyField(stack2_state.grid,
                         lambda idx: density_fields(stack2_state, idx)[0])
    line = axis_line()
    mu = line_sample(lazy_mu, line.base, line.direction, line.samples,
                     line.t_lo, line.t_hi)
    u = line_sample(stack2_state.u, line.base, line.direction, line.samples,
                    line.t_lo, line.t_hi)
    windows = detect_layers(u, tau=0.1, epsilon=stack2_state.epsilon)
    t, m = mu[:, 0], mu[:, 1]
    total = trapezoid(m, t)
    inside = 0.0
    for lo, hi in windows:
        mask = (t >= lo) & (t <= hi)
        inside += trapezoid(m[mask], t[mask])
    assert inside >= 0.98 * total


# ---------------------------------------------------------------- integers

def test_nearest_k_round_half_up():
    # a tie theta = 1.5 alpha rounds up and leaves the residual visible
    alpha = constants().alpha
    g = Grid(extent=(2.0, 2.0), points=(81, 81), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u = ScalarField(g, np.zeros(g.shape))
    st = make_state(u, ScalarField(g, np.zeros(g.shape)), 0.1)
    # u = 0: mu = 1/(2 eps) = 5 along the line; choose a length giving 1.5 alpha
    length = 1.5 * alpha / 5.0
    rep = quantization_check(
        st, [axis_line(-length / 2, length / 2, 201)], tau=0.5)
    row = rep.rows[0]
    assert row.nearest_k == 2
    assert row.quantization_residual == pytest.approx(0.5, abs=1e-6)
