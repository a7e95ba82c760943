"""Scenario corpus validation and deterministic builds."""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclab import (AnalysisParams, ConstantProfile, Grid, LayerSpec,
                   PERIODIC, RadialProfile, ScalarField, Scenario,
                   ScenarioError, SolvedBubbleProfile, SolvedFromForcingProfile,
                   ZERO_FLUX, build, make_state, manufactured_forcing,
                   norm_report, quantization_check)
from aclab import scenarios
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
    with pytest.raises(ValueError, match="epsilon=0.05 under-resolves the "
                       "grid: need eps >= 4h"):
        Scenario(name="bad", grid=small_grid(), epsilons=(0.05,),
                 profile=ConstantProfile(0.0))


def test_scenario_rejects_empty_or_negative_epsilon():
    with pytest.raises(ValueError, match="epsilons holds no epsilon"):
        Scenario(name="bad", grid=small_grid(), epsilons=(),
                 profile=ConstantProfile(0.0))
    with pytest.raises(ValueError, match="epsilon must be positive"):
        Scenario(name="bad", grid=small_grid(), epsilons=(-0.1,),
                 profile=ConstantProfile(0.0))


def test_scenario_refuses_a_profile_of_no_profile_class():
    # so that a build meets only the profile types it builds
    with pytest.raises(ValueError, match="bad: dict is not a profile class"):
        Scenario(name="bad", grid=small_grid(), epsilons=(0.1,), profile={})


@pytest.mark.parametrize("eps", [(0.1, 0.1), (0.1, 0.05, 0.1000001)])
def test_scenario_refuses_epsilons_that_share_a_label(eps):
    # results are keyed by f"{eps:g}": both would read eps=0.1
    with pytest.raises(ValueError, match=re.escape(
            f"bad: epsilons 0.1 and {eps[-1]!r} share the label eps=0.1")):
        Scenario(name="bad", grid=small_grid(), epsilons=eps,
                 profile=ConstantProfile(0.0))


def test_manufactured_states_have_zero_residual(planar_state, stack2_state):
    assert planar_state.residual_norm == 0.0
    assert stack2_state.residual_norm == 0.0


def test_build_is_deterministic():
    sc = Scenario(name="det", grid=small_grid(129), epsilons=(0.1,),
                  profile=LayerSpec(positions=(0.0,), axis=1))
    a = build(sc)[0]
    b = build(sc)[0]
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.f.values, b.f.values)


def test_build_error_carries_scenario_context():
    sc = Scenario(name="doomed", grid=small_grid(129), epsilons=(0.1,),
                  profile=SolvedBubbleProfile(center=(0.0, 0.0), radius=0.5))
    with mock.patch.object(scenarios, "_SOLVER_MAX_ITER", 1), \
            pytest.raises(ScenarioError, match="doomed.*eps=0.1"):
        build(sc)


def test_solved_scenarios_meet_tolerance(solved_circle_state):
    assert solved_circle_state.residual_norm <= 1e-10


def splitmix64(seed, count):
    """The first `count` outputs of SplitMix64 seeded with `seed`, in
    Python integers: the scalar reference of `scenarios._guess_noise`."""
    mask, out, state = (1 << 64) - 1, [], seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@settings(max_examples=50, deadline=None)
@given(shape=st.lists(st.integers(1, 40), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2 ** 64 - 1),
       amplitude=st.floats(1e-300, 1e300))
def test_guess_noise_is_seeded_and_uniform_on_the_amplitude(shape, seed,
                                                            amplitude):
    noise = scenarios._guess_noise(shape, seed, amplitude)
    assert noise.shape == shape
    assert np.all((-amplitude <= noise) & (noise < amplitude))
    # the same seed gives the same bits, another seed other noise
    assert np.array_equal(noise, scenarios._guess_noise(shape, seed,
                                                        amplitude))
    other = scenarios._guess_noise(shape, (seed + 1) % 2 ** 64, amplitude)
    assert not np.array_equal(noise, other)
    # node k holds the top 53 bits j of the k-th output, as j/2^52 - 1
    want = [((z >> 11) * 2.0 ** -52 - 1.0) * amplitude
            for z in splitmix64(seed, min(noise.size, 16))]
    assert noise.ravel()[:16].tolist() == want


def test_noiseless_solved_circle_starts_from_its_layer():
    # noise 0 leaves the manufactured layer, whose residual is 0: the solve
    # returns the guess as it is
    g = small_grid()
    sc = Scenario(name="quiet", grid=g, epsilons=(0.1,), seed=5,
                  profile=SolvedFromForcingProfile(center=(0.0, 0.0),
                                                   radius=0.5,
                                                   noise_amplitude=0.0))
    state, = build(sc)
    layer = scenarios.build_radial_layer(g, 0.1, (0.0, 0.0), 0.5)
    assert np.array_equal(state.u.values, layer.values)
    assert state.residual_norm == 0.0


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


def test_bubble_of_at_most_2_5_eps_is_refused_before_building():
    # R = 0.25 is 4 eps at eps = 0.0625 and 2.5 eps at 0.1: refused at 0.1,
    # before any solve
    sc = Scenario(name="b", grid=small_grid(129), epsilons=(0.0625, 0.1),
                  profile=SolvedBubbleProfile(center=(0.0, 0.0), radius=0.25))
    for check in (scenarios.check_buildable, build):
        with mock.patch.object(scenarios, "solve_stationary") as solve, \
                pytest.raises(ScenarioError,
                              match="radius 0.25 loses its interface at "
                                    r"eps=0.1; the radius must exceed 2.5"):
            check(sc)
        solve.assert_not_called()
    scenarios.check_buildable(replace(
        sc, profile=SolvedBubbleProfile(center=(0.0, 0.0), radius=0.2500001)))


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0])
def test_scenario_refuses_an_epsilon_not_positive_and_finite(eps):
    with pytest.raises(ValueError,
                       match="epsilon must be positive and finite"):
        Scenario(name="e", grid=small_grid(), epsilons=(0.1, eps),
                 profile=ConstantProfile(0.0))


def test_1d_bubble_is_refused_before_building():
    g = Grid(extent=(2.0,), points=(401,), boundary=ZERO_FLUX, origin=(-1.0,))
    sc = Scenario(name="b1", grid=g, epsilons=(0.05,),
                  profile=SolvedBubbleProfile(center=(0.0,), radius=0.3))
    with pytest.raises(ScenarioError, match="2-d or 3-d grid"):
        build(sc)


# The box of the nodes [-1, 1]^2 and a 3-d box from -0.3 to 0.5: a sphere
# that covers the box's farthest corner holds every node, one that misses
# its nearest point none.
@pytest.mark.parametrize("grid, center, radius, side", [
    (small_grid(), (0.0, 0.0), 1.5, "inside"),
    (small_grid(), (3.0, 0.0), 1.9, "outside"),
    (Grid(extent=(0.8,) * 3, points=(17,) * 3, origin=(-0.3,) * 3),
     (0.0, 0.0, 0.0), 0.9, "inside")])
def test_bubble_without_interface_is_refused_before_building(grid, center,
                                                             radius, side):
    sc = Scenario(name="b0", grid=grid, epsilons=(0.2,),
                  profile=SolvedBubbleProfile(center=center, radius=radius))
    with pytest.raises(ScenarioError, match=f"every grid node lies {side}"):
        scenarios.check_buildable(sc)
    with pytest.raises(ScenarioError, match=f"every grid node lies {side}"):
        build(sc)


@st.composite
def _bubble_grids(draw):
    """A small 2-d or 3-d grid, a centre in or near it, and a radius that is
    either drawn or the exact distance from the centre to a node, often a
    corner."""
    ndim = draw(st.integers(2, 3))
    points = draw(st.tuples(*[st.integers(8, 12)] * ndim))
    h = draw(st.floats(0.01, 0.5))
    grid = Grid(extent=[h * (n - 1) for n in points], points=points,
                origin=draw(st.tuples(*[st.floats(-3.0, 3.0)] * ndim)))
    center = draw(st.tuples(*[st.floats(-6.0, 6.0)] * ndim))
    node = tuple(draw(st.sampled_from((0, n - 1)) | st.integers(0, n - 1))
                 for n in points)
    radius = draw(st.floats(1e-3, 10.0) | st.just(
        float(signed_distance_ball(grid, center, 0.0)[node])))
    return grid, center, radius


@settings(max_examples=300, deadline=None)
@given(_bubble_grids())
def test_bubble_refusal_agrees_with_the_signed_distance(problem):
    # refused "inside" exactly when every node is inside and "outside"
    # exactly when none is: the nearest and the farthest node are summed
    # from the same offsets as the signed distance
    grid, center, radius = problem
    sc = Scenario(name="b", grid=grid, epsilons=(4.0 * grid.h,),
                  profile=SolvedBubbleProfile(center=center, radius=radius))
    inside = signed_distance_ball(grid, center, radius) < 0.0
    try:
        scenarios._check_bubble_grid(sc)
        refused = None
    except ScenarioError as exc:
        refused = "inside" if "lies inside" in str(exc) else "outside"
    assert (refused == "inside") == inside.all()
    assert (refused == "outside") == (not inside.any())


def periodic_circle(center):
    grid = Grid(extent=(2.0, 2.0), points=(128, 128), boundary=PERIODIC,
                origin=(-1.0, -1.0))
    return Scenario(name="torus", grid=grid, epsilons=(0.1,),
                    profile=RadialProfile(center=center, radius=0.5))


def test_a_ball_on_a_periodic_grid_wraps_round_the_seam():
    # the circle about (1, 0), on the seam x = -1 ~ 1, is the circle about
    # (0, 0) shifted by half the torus: the same node values, a cyclic
    # shift of half the axis-0 planes, and the same norms bit for bit
    seam, = build(periodic_circle((1.0, 0.0)))
    centred, = build(periodic_circle((0.0, 0.0)))
    assert np.array_equal(seam.u.values,
                          np.roll(centred.u.values, 64, axis=0))
    want = norm_report(centred)
    got = norm_report(seam)
    assert (got.lambda_hat, got.total_energy) == (want.lambda_hat,
                                                  want.total_energy)
    assert want.lambda_hat == pytest.approx(16.916, abs=1e-3)


def test_to_config_round_trip(tmp_path, corpus):
    from aclab.cli import load_config
    from aclab.cli import to_config
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


def _label(eps):
    # a Scenario refuses two epsilons with one label
    return f"{eps:g}"


def _fitting_stack(draw, grid, axis):
    """A layer stack and its epsilons that build: layers 4 eps apart and
    6 eps from the faces of the axis, for every eps, with 1% to spare so
    that rounding the positions cannot break the fit."""
    k = draw(st.integers(1, 3))
    lo, hi = grid.lo[axis % grid.ndim], grid.hi[axis % grid.ndim]
    widths = 12 + 4 * (k - 1)  # face margins and gaps, in units of eps
    cap = min(1.0, (hi - lo) / (1.01 * widths))
    epsilons = draw(st.lists(st.floats(4.0 * grid.h, cap), min_size=1,
                             max_size=3, unique_by=_label).map(tuple))
    room = 1.01 * max(epsilons)
    free = max(0.0, (hi - lo) - widths * room)
    shifts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                  max_size=k)))
    positions = tuple(lo + (6 + 4 * i) * room + s * free
                      for i, s in enumerate(shifts))
    return LayerSpec(positions=positions, axis=axis,
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
    if kind == "bubble":  # a radius over 2.5 eps >= 10 h must cross the grid
        points = [max(n, 24) for n in points]
    h = draw(st.floats(1e-3, 0.1))
    extent = [h * (n if boundary == PERIODIC else n - 1) for n in points]
    grid = Grid(extent=extent, points=tuple(points), boundary=boundary,
                origin=draw(st.tuples(*[_coord] * ndim)))
    point = st.tuples(*[_coord] * ndim)
    radial = st.builds(RadialProfile, center=point, radius=_positive)
    # a bubble's sphere must cross the grid (`check_buildable`): its centre
    # in the box of the nodes and its radius under half the box's diagonal,
    # and above 2.5 eps
    last = [lo + grid.h * (n - 1) for lo, n in zip(grid.lo, grid.points)]
    inner = st.tuples(*[st.floats(lo, hi) for lo, hi in zip(grid.lo, last)])
    diagonal = math.dist(grid.lo, last)
    cap = min(1.0, 0.15 * diagonal) if kind == "bubble" else 1.0
    epsilons = st.lists(st.floats(4.0 * grid.h, cap), min_size=1,
                        max_size=3, unique_by=_label).map(tuple)
    if kind == "stack":
        profile, eps = _fitting_stack(draw, grid, axis)
    else:
        eps = draw(epsilons)
        profile = draw({
            "radial": radial,
            "bubble": st.builds(SolvedBubbleProfile, center=inner,
                                radius=st.floats(2.5 * max(eps),
                                                 0.4 * diagonal,
                                                 exclude_min=True)),
            "constant": st.builds(ConstantProfile, _coord),
            "solved-forcing": st.builds(SolvedFromForcingProfile,
                                        center=point, radius=_positive,
                                        noise_amplitude=_positive)}[kind])
    params = draw(st.builds(
        AnalysisParams,  # q0 must exceed n = ndim - 1 and be >= 1
        q0=st.none() | st.floats(max(ndim - 1, 1), 5.0, exclude_min=ndim > 1),
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
    from aclab.cli import to_config
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


def test_a_1d_ball_is_sampled_both_ways_with_one_layer_each():
    g = Grid(extent=(2.0,), points=(401,), boundary=ZERO_FLUX, origin=(-1.0,))
    sc = Scenario(name="ball-1d", grid=g, epsilons=(0.05,),
                  profile=RadialProfile(center=(0.0,), radius=0.5))
    lines = default_lines(sc, 0.05)
    assert [line.direction for line in lines] == [(1.0,), (-1.0,)]
    rep = quantization_check(build(sc)[0], lines)
    assert [(row.layer_count, row.nearest_k) for row in rep.rows] == [
        (1, 1), (1, 1)]
