"""Scenario corpus validation and deterministic builds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclab import (AnalysisParams, ConstantProfile, Grid, LayerStackProfile,
                   PERIODIC, RadialProfile, ScalarField, Scenario,
                   ScenarioError, SolvedBubbleProfile, SolvedFromForcingProfile,
                   ZERO_FLUX, build, make_state, manufactured_forcing)
from aclab.phasefield import SolverError, signed_distance_ball
from aclab.scenarios import (_check_bubble, default_center, default_lines,
                             default_radii)


def small_grid(n=81):
    return Grid(extent=(2.0, 2.0), points=(n, n), boundary=ZERO_FLUX,
                origin=(-1.0, -1.0))


def test_corpus_contents(corpus):
    expected = {"planar-1", "stack-2", "stack-3", "stack-2-1d", "stack-3-1d",
                "circle", "circle-sweep", "sphere", "constant-zero",
                "constant-one", "solved-circle"}
    assert expected <= set(corpus)
    for sc in corpus.values():
        for eps in sc.epsilons:
            assert sc.grid.h <= eps / 4.0 + 1e-12


def test_scenario_rejects_underresolved_epsilon():
    with pytest.raises(ScenarioError, match="exceeds eps/4"):
        Scenario(name="bad", grid=small_grid(), epsilons=(0.05,),
                 profile=ConstantProfile(0.0))


def test_scenario_rejects_empty_or_negative_epsilon():
    with pytest.raises(ScenarioError):
        Scenario(name="bad", grid=small_grid(), epsilons=(),
                 profile=ConstantProfile(0.0))
    with pytest.raises(ScenarioError, match="positive"):
        Scenario(name="bad", grid=small_grid(), epsilons=(-0.1,),
                 profile=ConstantProfile(0.0))


def test_manufactured_states_have_zero_residual(planar_state, stack2_state):
    assert planar_state.residual_norm == 0.0
    assert stack2_state.residual_norm == 0.0


def test_build_is_deterministic():
    sc = Scenario(name="det", grid=small_grid(129), epsilons=(0.1,),
                  profile=LayerStackProfile(positions=(0.0,), axis=1))
    a = build(sc)[0]
    b = build(sc)[0]
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.f.values, b.f.values)


def test_build_error_carries_scenario_context():
    sc = Scenario(name="doomed", grid=small_grid(129), epsilons=(0.1,),
                  profile=SolvedBubbleProfile(center=(0.0, 0.0), radius=0.5),
                  solver_tol=1e-14, solver_max_iter=1)
    with pytest.raises(ScenarioError, match="doomed.*eps=0.1"):
        build(sc)


def test_solved_scenarios_meet_tolerance(solved_circle_state, corpus):
    assert solved_circle_state.residual_norm <= corpus["solved-circle"].solver_tol


def bubble_3d(radius):
    g = Grid(extent=(2.0, 2.0, 2.0), points=(81, 81, 81), boundary=ZERO_FLUX,
             origin=(-1.0, -1.0, -1.0))
    return Scenario(name="bubble-3d", grid=g, epsilons=(0.1,),
                    profile=SolvedBubbleProfile(center=(0.0, 0.0, 0.0),
                                                radius=radius))


def test_3d_bubble_forcing_balances_the_sphere():
    # f = 2 alpha/(2R) in 3-d: the sphere's mean curvature is 2/R, not 1/R
    state = build(bubble_3d(0.5))[0]
    assert state.residual_norm <= 1e-10
    line = state.u.values[40:, 40, 40]  # from the centre along +x, h = 0.025
    k = int(np.argmax(line > 0.0))
    assert line[0] < 0.0 < line[-1] and k > 0
    crossing = 0.025 * (k - line[k] / (line[k] - line[k - 1]))
    assert crossing == pytest.approx(0.5, abs=0.05)


def test_bubble_that_loses_its_interface_is_refused():
    # R = 0.3 at eps = 0.1 is too small a critical bubble: Newton leaves
    # the saddle for the uniform state
    with pytest.raises(ScenarioError, match="lost its interface") as info:
        build(bubble_3d(0.3))
    assert isinstance(info.value.__cause__, SolverError)


def test_bubble_check_refuses_a_moved_interface():
    g = small_grid(81)
    u = ScalarField(g, np.tanh(signed_distance_ball(g, (0.0, 0.0), 0.7) / 0.1))
    state = make_state(u, manufactured_forcing(u, 0.1), 0.1)
    _check_bubble(state, signed_distance_ball(g, (0.0, 0.0), 0.65))
    with pytest.raises(SolverError, match="zero level set lies 0.[12]"):
        _check_bubble(state, signed_distance_ball(g, (0.0, 0.0), 0.5))


def test_1d_bubble_is_refused_before_building():
    g = Grid(extent=(2.0,), points=(401,), boundary=ZERO_FLUX, origin=(-1.0,))
    sc = Scenario(name="b1", grid=g, epsilons=(0.05,),
                  profile=SolvedBubbleProfile(center=(0.0,), radius=0.3))
    with pytest.raises(ScenarioError, match="2-d or 3-d grid"):
        build(sc)


def test_to_config_round_trip(tmp_path, corpus):
    from aclab.cli import load_config
    from aclab.scenarios import to_config
    for name in ("planar-1", "circle", "circle-sweep", "constant-zero",
                 "solved-circle"):
        sc = corpus[name]
        path = tmp_path / f"{name}.cfg"
        path.write_text(to_config(sc) + "analyses = norms\n")
        loaded = load_config(path).scenario
        assert loaded.grid == sc.grid
        assert loaded.epsilons == sc.epsilons
        assert loaded.profile == sc.profile
        assert loaded.params == sc.params
        assert loaded.seed == sc.seed


_coord = st.floats(-10.0, 10.0)
_positive = st.floats(1e-3, 10.0)


def _fitting_stack(draw, grid, axis):
    """A layer stack and its epsilons that build: layers 4 eps apart and
    6 eps from the faces of the axis, for every eps, with 1% to spare so
    that rounding the positions cannot break the fit."""
    k = draw(st.integers(1, 3))
    lo, hi = grid.lo[axis % grid.ndim], grid.hi[axis % grid.ndim]
    widths = 12 + 4 * (k - 1)  # face margins and gaps, in units of eps
    cap = min(1.0, (hi - lo) / (1.01 * widths))
    epsilons = draw(st.lists(st.floats(4.0 * grid.h, cap), min_size=1,
                             max_size=3).map(tuple))
    room = 1.01 * max(epsilons)
    free = max(0.0, (hi - lo) - widths * room)
    shifts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                  max_size=k)))
    positions = tuple(lo + (6 + 4 * i) * room + s * free
                      for i, s in enumerate(shifts))
    return LayerStackProfile(positions=positions, axis=axis,
                             first_sign=draw(st.sampled_from([-1, 1]))), epsilons


@st.composite
def _scenarios(draw):
    ndim = draw(st.integers(1, 3))
    kinds = ["stack", "radial", "constant", "solved-forcing"]
    kind = draw(st.sampled_from(kinds + (["bubble"] if ndim > 1 else [])))
    axis = draw(st.integers(-ndim, ndim - 1))
    boundary = draw(st.sampled_from([ZERO_FLUX, PERIODIC]))
    points = list(draw(st.tuples(*[st.integers(8, 40)] * ndim)))
    if kind == "stack":  # 12 eps >= 48 h of face margins must fit the axis
        points[axis] = draw(st.integers(90, 200))
    h = draw(st.floats(1e-3, 0.1))
    extent = [h * (n if boundary == PERIODIC else n - 1) for n in points]
    grid = Grid(extent=extent, points=tuple(points), boundary=boundary,
                origin=draw(st.tuples(*[_coord] * ndim)))
    point = st.tuples(*[_coord] * ndim)
    radial = st.builds(RadialProfile, center=point, radius=_positive)
    epsilons = st.lists(st.floats(4.0 * grid.h, 1.0), min_size=1,
                        max_size=3).map(tuple)
    if kind == "stack":
        profile, eps = _fitting_stack(draw, grid, axis)
    else:
        profile = draw({
            "radial": radial,
            "bubble": st.builds(SolvedBubbleProfile, center=point,
                                radius=_positive),
            "constant": st.builds(ConstantProfile, _coord),
            "solved-forcing": st.builds(SolvedFromForcingProfile, base=radial,
                                        noise_amplitude=_positive)}[kind])
        eps = draw(epsilons)
    params = draw(st.builds(
        AnalysisParams,  # q0 must exceed n = ndim - 1
        q0=st.none() | st.floats(ndim - 1, 5.0, exclude_min=True),
        grad_threshold=st.floats(0.0, 1.0), supersample=st.integers(1, 8),
        tau=st.floats(0.01, 0.99)))
    return Scenario(
        name=draw(st.text("abcxyz-0123456789", min_size=1, max_size=12)),
        grid=grid, profile=profile, params=params, epsilons=eps,
        seed=draw(st.integers(0, 2**31)))


@settings(max_examples=100, deadline=None)
@given(sc=_scenarios())
def test_to_config_round_trip_property(tmp_path_factory, sc):
    from aclab.cli import load_config
    from aclab.scenarios import to_config
    path = tmp_path_factory.getbasetemp() / "round-trip.cfg"
    path.write_text(to_config(sc))
    loaded = load_config(path).scenario
    assert loaded.name == sc.name
    assert loaded.grid == sc.grid
    assert loaded.epsilons == sc.epsilons
    assert loaded.profile == sc.profile
    assert loaded.params == sc.params
    assert loaded.seed == sc.seed


def test_default_geometry_helpers(corpus):
    sc = corpus["planar-1"]
    center = default_center(sc)
    assert center == (0.0, 0.0)
    radii = default_radii(sc, sc.epsilons[0], center)
    assert radii[0] >= max(4 * sc.grid.h, sc.epsilons[0])
    lines = default_lines(sc, sc.epsilons[0])
    assert len(lines) == 5
    circle_lines = default_lines(corpus["circle"], 0.05)
    assert len(circle_lines) == 8
