"""Ball and slab monotonicity identities, density ratios, sheet separation."""

from unittest import mock

import numpy as np
import pytest

from aclab import (Grid, LayerSpec, RegionError, ScalarField, ZERO_FLUX,
                   build_layer_stack, build_radial_layer, density_fields,
                   density_ratio_profile, make_state,
                   manufactured_forcing, monotonicity_report,
                   sheet_separation_integral, slab_report)
from aclab import fields, monotonicity
from aclab.fields import gradient


def constant_state(value=1.0, eps=0.05, n=161):
    g = Grid(extent=(2.0, 2.0), points=(n, n), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0))
    u = ScalarField(g, np.full(g.shape, float(value)))
    return make_state(u, ScalarField(g, np.zeros(g.shape)), eps)


def zero_forcing_variant(state):
    zero = ScalarField(state.grid, np.zeros(state.grid.shape))
    return make_state(state.u, zero, state.epsilon)


# ---------------------------------------------------------------- reports

def test_pure_phase_gives_zero_columns():
    st = constant_state(1.0)
    radii = np.linspace(0.2, 0.5, 7)
    rep = monotonicity_report(st, (0.0, 0.0), radii)
    for col in (rep.ratio, rep.lhs, rep.term_xi, rep.term_boundary,
                rep.term_forcing, rep.residual):
        assert np.max(np.abs(col)) == 0.0
    assert rep.aggregate == 0.0


def test_planar_identity_residual(planar_state):
    radii = np.linspace(0.1, 0.4, 25)
    rep = monotonicity_report(planar_state, (0.0, 0.0), radii, supersample=8)
    assert rep.aggregate <= 0.05
    assert np.min(rep.term_boundary) >= -1e-10 * rep.scale


def test_zero_forcing_column_vanishes(planar_state):
    st = zero_forcing_variant(planar_state)
    radii = np.linspace(0.1, 0.4, 25)
    rep = monotonicity_report(st, (0.0, 0.0), radii, supersample=8)
    assert np.max(np.abs(rep.term_forcing)) <= 1e-6 * rep.scale
    assert rep.aggregate <= 0.05


def test_fractional_supersample_is_refused():
    # int(2.7) would give the supersample-2 columns, and 2.0 would find
    # their memo entry
    st = constant_state(1.0, n=81)
    radii = np.linspace(0.2, 0.5, 7)
    monotonicity_report(st, (0.0, 0.0), radii, supersample=2)
    for supersample in (2.7, 2.0):
        with pytest.raises(ValueError, match="supersample must be an integer"):
            monotonicity_report(st, (0.0, 0.0), radii, supersample=supersample)


def test_circle_identity_forcing_material(circle_state):
    radii = np.linspace(0.1, 0.35, 21)
    rep = monotonicity_report(circle_state, (0.5, 0.0), radii, supersample=8)
    assert rep.aggregate <= 0.05
    assert np.max(np.abs(rep.term_forcing)) >= 0.10 * rep.scale


def test_report_preconditions(planar_state):
    with pytest.raises(ValueError, match="at least 5"):
        monotonicity_report(planar_state, (0.0, 0.0), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="uniform"):
        monotonicity_report(planar_state, (0.0, 0.0),
                            [0.1, 0.15, 0.25, 0.3, 0.35])
    with pytest.raises(ValueError, match=r"radius=0.01 under-resolves the "
                       r"grid: need radii >= max\(4h, eps\)"):
        monotonicity_report(planar_state, (0.0, 0.0),
                            np.linspace(0.01, 0.4, 9))


def test_integrated_exp_weighted_comparison(circle_state):
    # integrated form of the ball identity: with K = (q0/(q0-n)) * C and
    # C = (2 Lambda)^(1/q0) bounding the forcing term, the exp-weighted
    # ratio at r0 dominates the ratio at every smaller radius up to the
    # aggregate residual budget
    from aclab import AnalysisParams, diffuse_mean_curvature_norm
    params = AnalysisParams()
    q0 = params.resolve_q0(circle_state.grid.ndim)
    n = circle_state.grid.ndim - 1
    lam, _ = diffuse_mean_curvature_norm(circle_state, params)
    c_lam = (2.0 * lam) ** (1.0 / q0)
    k = q0 / (q0 - n) * c_lam

    radii = np.linspace(0.1, 0.35, 21)
    rep = monotonicity_report(circle_state, (0.5, 0.0), radii, supersample=8)
    r0 = radii[-1]
    weighted = np.exp(k * r0 ** (1.0 - n / q0)) * (1.0 + rep.ratio[-1])
    budget = 0.05 * rep.scale * (r0 - radii[0])
    assert np.min(weighted - rep.ratio) >= -budget


REPORTS = pytest.mark.parametrize("report", [
    monotonicity_report,
    lambda st, center, radii: slab_report(st, center, radii, -0.9, 0.9),
    density_ratio_profile,
], ids=("ball", "slab", "ratio"))


@REPORTS
def test_balls_crossing_the_domain_margin_are_refused(circle_state, report):
    # B_0.49((0.5, 0)) comes within 0.01 < 2h = 0.0125 of the wall x = 1
    with pytest.raises(RegionError, match="2h domain margin"):
        report(circle_state, (0.5, 0.0), np.linspace(0.1, 0.49, 6))


@REPORTS
@pytest.mark.parametrize("center", [(0.5,), (0.5, 0.0, 0.9), (np.nan, 0.0)],
                         ids=("short", "long", "nan"))
def test_a_center_not_in_the_grid_space_is_refused(circle_state, report,
                                                   center):
    with pytest.raises(RegionError, match="needs 2 finite coordinates"):
        report(circle_state, center, np.linspace(0.1, 0.3, 5))


@REPORTS
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radii", [np.full(5, np.nan),
                                   [0.1, 0.15, np.nan, 0.25, 0.3],
                                   [0.1, 0.15, 0.2, 0.25, np.inf],
                                   np.full(5, np.inf)],
                         ids=("nan", "one-nan", "last-inf", "inf"))
def test_non_finite_radii_are_refused_by_name(circle_state, report, radii):
    with pytest.raises(ValueError, match="^radii must be finite"):
        report(circle_state, (0.0, 0.0), radii)


def test_slab_clipping_the_ball_inside_the_domain_keeps_the_margin(
        circle_state):
    # B_0.66((0, 0.5)) crosses the wall x_last = 1, but the slab cuts it at
    # x_last = 0.4, so the region it integrates keeps the margin
    center, radii = (0.0, 0.5), np.linspace(0.3, 0.66, 7)
    with pytest.raises(RegionError, match="2h domain margin"):
        monotonicity_report(circle_state, center, radii)
    rep = slab_report(circle_state, center, radii, -0.2, 0.4)
    assert np.all(np.isfinite(rep.residual))
    assert np.min(np.abs(rep.term_plane_hi)) > 0.0  # the plane cuts the circle
    with pytest.raises(RegionError, match="2h domain margin on axis 1"):
        slab_report(circle_state, center, radii, -0.2, 1.2)


# ---------------------------------------------------------------- ratios

def test_density_ratio_pure_phase():
    st = constant_state(1.0)
    prof = density_ratio_profile(st, (0.0, 0.0), np.linspace(0.2, 0.5, 5))
    assert np.max(np.abs(prof[:, 1])) == 0.0


def test_density_ratio_layer_through_center():
    # chord-length oracle: ratio ~ 2 alpha with exp(-r/eps) corrections
    eps = 0.02
    g = Grid(extent=(1.0, 1.0), points=(401, 401), boundary=ZERO_FLUX,
             origin=(-0.5, -0.5))
    u = build_layer_stack(g, eps, LayerSpec(positions=(0.0,), axis=1))
    st = make_state(u, manufactured_forcing(u, eps), eps)
    prof = density_ratio_profile(st, (0.0, 0.0), np.linspace(0.1, 0.4, 7))
    from aclab import constants
    target = 2.0 * constants().alpha
    assert np.max(np.abs(prof[:, 1] - target)) <= 0.02 * target


def test_density_ratio_single_radius(circle_state):
    one = density_ratio_profile(circle_state, (0.0, 0.0), [0.3])
    many = density_ratio_profile(circle_state, (0.0, 0.0), [0.3, 0.35, 0.4])
    assert one.shape == (1, 2)
    assert one[0, 0] == 0.3 and one[0, 1] == many[0, 1]


# ---------------------------------------------------------------- slab

def test_slab_containment_matches_plain(circle_state):
    radii = np.linspace(0.1, 0.3, 9)
    plain = monotonicity_report(circle_state, (0.5, 0.0), radii, supersample=8)
    slab = slab_report(circle_state, (0.5, 0.0), radii, -0.9, 0.9,
                       supersample=8)
    assert np.max(np.abs(plain.residual - slab.residual)) <= 1e-12
    assert np.max(np.abs(plain.ratio - slab.ratio)) <= 1e-12
    assert np.max(np.abs(slab.term_plane_lo)) <= 1e-10 * max(slab.scale, 1e-30)
    assert np.max(np.abs(slab.term_plane_hi)) <= 1e-10 * max(slab.scale, 1e-30)


def test_slab_pure_phase_zero():
    st = constant_state(1.0, eps=0.05)
    rep = slab_report(st, (0.0, 0.0), np.linspace(0.3, 0.5, 6), -0.2, 0.2)
    assert np.max(np.abs(rep.residual)) == 0.0
    assert rep.aggregate == 0.0


def test_slab_plane_terms_exponentially_small():
    # planar layer at x_last = 0, planes at +-10 eps: plane-term mass decays
    # like sech^4(distance/eps)
    eps = 0.02
    g = Grid(extent=(1.0, 1.0), points=(401, 401), boundary=ZERO_FLUX,
             origin=(-0.5, -0.5))
    u = build_layer_stack(g, eps, LayerSpec(positions=(0.0,), axis=1))
    st = make_state(u, manufactured_forcing(u, eps), eps)
    rep = slab_report(st, (0.0, 0.0), np.linspace(0.24, 0.4, 9), -0.2, 0.2,
                      supersample=8)
    pmax = max(np.max(np.abs(rep.term_plane_lo)),
               np.max(np.abs(rep.term_plane_hi)))
    assert pmax <= np.exp(-0.2 / eps) * 100.0 * rep.scale


def test_slab_validation(circle_state):
    radii = np.linspace(0.1, 0.3, 9)
    with pytest.raises(RegionError, match="degenerate"):
        slab_report(circle_state, (0.5, 0.0), radii, 0.2, 0.2)
    with pytest.raises(RegionError, match="pole"):
        slab_report(circle_state, (0.5, 0.0), radii, -0.2, 0.2)


# ---------------------------------------------------------------- sheets

def test_sheet_separation_trivial_and_errors():
    st = constant_state(1.0, eps=0.05)
    assert sheet_separation_integral(st, (0.0, 0.0), 0.1, 0.05, 0.4) == 0.0
    with pytest.raises(ValueError, match="d=0.5 > R"):
        sheet_separation_integral(st, (0.0, 0.0), 0.1, 0.5, 0.4)
    with pytest.raises(ValueError, match="below the layer width"):
        sheet_separation_integral(st, (0.0, 0.0), 0.1, 0.01, 0.4)
    for x in ((0.5,), (0.5, 0.0, 0.9), (np.nan, 0.0)):
        with pytest.raises(RegionError, match="needs 2 finite coordinates"):
            sheet_separation_integral(st, x, 0.1, 0.05, 0.4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["t3", "d", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=("nan", "inf", "-inf"))
def test_sheet_separation_refuses_non_finite_by_name(name, bad):
    st = constant_state(1.0, eps=0.05)
    args = {"t3": 0.1, "d": 0.05, "R": 0.4, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        sheet_separation_integral(st, (0.0, 0.0), **args)


# ---------------------------------------------------------------- shared sweep

def circle_81():
    """A fresh manufactured circle R = 0.5 at eps = 0.1 on 81^2 (h = eps/4),
    with nothing cached."""
    g = Grid(extent=(2.0, 2.0), points=(81, 81), origin=(-1.0, -1.0))
    u = build_radial_layer(g, 0.1, (0.0, 0.0), 0.5)
    return make_state(u, manufactured_forcing(u, 0.1), 0.1)


def whole_ball_columns(state, center, radii, slab):
    """The four ball terms' integrals from whole-grid integrand arrays, by
    ball_integrals with the slab."""
    g, c = state.grid, np.asarray(center)
    grad = gradient(state.u).values
    radial = sum((m - ci) * gi
                 for gi, m, ci in zip(grad, g.meshgrid(sparse=True), c))
    terms = [*density_fields(state, ...), state.epsilon * radial ** 2,
             radial * state.f.values]
    return fields.ball_integrals(g, terms, c, radii, 4, slab=slab)


def counted_passes():
    return mock.patch.object(fields._BallQuadrature, "integral_many",
                             autospec=True,
                             side_effect=fields._BallQuadrature.integral_many)


BALL_COLUMNS = ("ratio", "lhs", "term_xi", "term_boundary", "term_forcing",
                "residual")
CENTER, RADII = (0.0, 0.0), np.linspace(0.15, 0.75, 5)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_an_inert_slab_reads_the_balls_columns_from_one_sweep():
    # the largest ball's box reaches x_last = -0.8 - h/2: the slab lies
    # beyond it on both sides
    state, slab = circle_81(), (-0.9, 0.9)
    assert fields.inert_slab(state.grid, CENTER, RADII[-1], 4, slab)
    with counted_passes() as passes:
        ball = monotonicity_report(state, CENTER, RADII)
        cut = slab_report(state, CENTER, RADII, *slab)
    assert passes.call_count == len(RADII)
    # the shared columns are those the slab-restricted quadrature gives
    shared = monotonicity._ball_columns(state, np.asarray(CENTER), RADII, 4,
                                        slab)
    assert_same_bits(shared, whole_ball_columns(state, CENTER, RADII, slab))
    for name in BALL_COLUMNS:
        assert_same_bits(getattr(cut, name), getattr(ball, name))
    assert (cut.scale, cut.aggregate) == (ball.scale, ball.aggregate)
    # the slab's planes miss every ball
    for plane in (cut.term_plane_lo, cut.term_plane_hi):
        assert_same_bits(plane, np.zeros(len(RADII)))


def test_a_slab_that_clips_a_ball_sweeps_its_own_columns():
    # x_last = -0.375 cuts the balls of radius 0.45 and up
    state, slab = circle_81(), (-0.375, 0.9)
    assert not fields.inert_slab(state.grid, CENTER, RADII[-1], 4, slab)
    with counted_passes() as passes:
        ball = monotonicity_report(state, CENTER, RADII)
        cut = slab_report(state, CENTER, RADII, *slab)
    # a sweep each, and a disc for each radius the plane cuts
    assert passes.call_count == 2 * len(RADII) + 3
    clipped = monotonicity._ball_columns(state, np.asarray(CENTER), RADII, 4,
                                         slab)
    assert_same_bits(clipped, whole_ball_columns(state, CENTER, RADII, slab))
    assert_same_bits(cut.ratio[:2], ball.ratio[:2])
    assert np.all(cut.ratio[2:] < ball.ratio[2:])
    assert np.all(cut.term_plane_lo[2:] != 0.0)
