"""Scenario corpus validation and deterministic builds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclab import (AnalysisParams, ConstantProfile, Grid, LayerStackProfile,
                   PERIODIC, RadialProfile, Scenario, ScenarioError,
                   SolvedBubbleProfile, SolvedFromForcingProfile, ZERO_FLUX,
                   build)
from aclab.scenarios import default_center, default_lines, default_radii


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


@st.composite
def _scenarios(draw):
    ndim = draw(st.integers(1, 3))
    boundary = draw(st.sampled_from([ZERO_FLUX, PERIODIC]))
    points = draw(st.tuples(*[st.integers(8, 40)] * ndim))
    h = draw(st.floats(1e-3, 0.1))
    extent = [h * (n if boundary == PERIODIC else n - 1) for n in points]
    grid = Grid(extent=extent, points=points, boundary=boundary,
                origin=draw(st.tuples(*[_coord] * ndim)))
    point = st.tuples(*[_coord] * ndim)
    radial = st.builds(RadialProfile, center=point, radius=_positive)
    profile = draw(st.one_of(
        st.builds(LayerStackProfile,
                  positions=st.lists(_coord, min_size=1, max_size=3).map(tuple),
                  axis=st.integers(-ndim, ndim - 1),
                  first_sign=st.sampled_from([-1, 1])),
        radial,
        st.builds(SolvedBubbleProfile, center=point, radius=_positive),
        st.builds(ConstantProfile, _coord),
        st.builds(SolvedFromForcingProfile, base=radial,
                  noise_amplitude=_positive)))
    params = draw(st.builds(
        AnalysisParams, q0=st.none() | st.floats(0.5, 5.0),
        grad_threshold=st.floats(0.0, 1.0), supersample=st.integers(1, 8),
        tau=st.floats(0.01, 0.99)))
    return Scenario(
        name=draw(st.text("abcxyz-0123456789", min_size=1, max_size=12)),
        grid=grid, profile=profile, params=params,
        epsilons=draw(st.lists(st.floats(4.0 * grid.h, 1.0), min_size=1,
                               max_size=3).map(tuple)),
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
