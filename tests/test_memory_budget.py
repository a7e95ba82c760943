"""Memory budget of the build and the analyses on a 65^3 manufactured
sphere and the 641^2 corpus circle, in grid arrays. A state holds u and f
and caches no grid array, only scalars and the ball identity's columns
(one row per radius): |grad u|^2, mu, xi, |grad u|, the gradient of u and
the node weights are formed where they are read, on a slab of axis-0
planes, on two planes of the last axis (the sheets) or on the corners of
an interpolation stencil (`fields._grad_sq_at`, `fields._gradient_box`).
Every whole-domain integral is summed a slab at a time with no whole-grid
buffer (`fields._integrals`); the ball identity builds |grad u|^2 and
<x-c,grad u> on the index box of the largest ball only, from one gradient
of a run of the box's planes (`fields._stream`), and forms mu, xi and its
two radial integrands on the nodes each radius gathers, about half a
slab's worth at a time.

The build's traced peak above the u and f it returns stays within 0.95
grid arrays: the forcing and the residual max-norm are formed a slab at a
time. It measures 0.13; 4.0 when `manufactured_forcing` and `make_state`
formed the Laplacian and the residual whole.

Each CLI runner's traced peak above the state's u and f stays within 0.95
grid arrays, each on a new state, so that no value another runner
memoised spares it its work; since the runners form |grad u|^2 where they
read it, nothing else is there when they start. The measured peaks are
0.90 and 0.91 (`monotonicity` and `slab`): two box arrays (|grad u|^2 and
<x-c,grad u>, 0.91 when the box arrays were eps <x-c,grad u>^2 and
<x-c,grad u> f over a cached whole-grid |grad u|^2), the box's node
distances and the nodes one run of planes gathers, with the four
integrands formed on them; the band fractions reach 0.86 there, summing
each chunk's squared distances into one buffer per call (0.90 when each
axis's sum was a new array: 0.19 of a grid array of scratch for the
largest radius, now 0.15); 0.67 (`firstvar`: one walk for its two test
fields, each carrying two planes between slabs; 0.49 when each field
walked the grid alone), 0.45 (`gdelta`), 0.28 (`norms` and `sweep`,
whose one walk forms the report's and the curvature norm's seven
integrands on each slab; 0.18 with a cached |grad u|^2) and 0.02
(`quantize`).

On the corpus circle at eps 0.1 the same runners stay within 1.0 grid
array: the box of the identities' largest ball is a quarter of the 2-d
grid, so `monotonicity` and `slab` measure 0.98, and the others 0.42
(`firstvar`) or less. The 0.95 bound holds only on the 65^3 sphere, whose
box is a smaller share of its grid.

The Newton solve of a 161^2 solved circle peaks within 16 grid arrays
above the f and initial guess it is given. It measures 15.6: u and R of
the Newton loop, the coarse space's weight, six arrays of `spsolve` (its
centre formed in the buffer of the W''(u)/eps it is passed, D*rhs its
third product, and the coarse correction working in the product the
matvec writes next) and MINRES's five vectors, 0.27 for the DCT-I's
chunk buffers, and 0.95 for the fixed 196 KB of buffers numpy takes for
the matvec's in-place sums on strided views (0.1 of a 481^2 array). It
measured 18.6 when the loop held W''(u)/eps, D*rhs was an array of its
own beside the three products and the correction had its own scratch,
and 23.2 when the solve also held the previous step's du, D and
D*eps/h^2 as arrays, a preconditioner buffer of its own and a third
MINRES direction.

Building a 161^2 solved circle or solved bubble peaks within 17 grid
arrays above its start, f and u included: the initial guess is a
temporary that the solve frees with its first step's u (on CPython >=
3.11, whose frames own their call arguments). They measure 16.6; 20.6
and 21.7 when the build held the guess, and the bubble its signed
distance, through the solve.

A whole `cli.run` holds one state at a time: on the corpus circle (641^2,
three epsilons, every analysis) its traced peak stays within 3.5 grid
arrays above its start, one state's u and f and one runner's scratch. It
measures 2.98: u, f and the ball identity's 0.98 (in 2-d its box is a
quarter of the grid); it measured 3.98 when each state cached |grad u|^2
as a third grid array, and 9.98 when the run built every state before
the first analysis and held them all to the end."""

import sys
import tracemalloc

import numpy as np
import pytest

from aclab import (Grid, ScalarField, Scenario, SolvedBubbleProfile,
                   SolvedFromForcingProfile, build, build_radial_layer,
                   manufactured_forcing, solve_stationary)
from aclab.fields import integrate
from aclab.cli import ANALYSES, _RUNNERS, load_config, run


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran, in
    bytes above what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


SPHERE_65 = """scenario.kind = circle
scenario.center = 0, 0, 0
scenario.radius = 0.4
scenario.epsilon = 0.125
grid.extent = 2, 2, 2
grid.origin = -1, -1, -1
grid.points = 65, 65, 65
firstvar.count = 2
analyses = {}
"""


GRID_ARRAY = 8 * 65 ** 3

# the corpus circle (641^2) at one epsilon, where a ball of the identities
# covers a quarter of the grid
CIRCLE_01 = """scenario = circle
scenario.epsilon = 0.1
firstvar.count = 2
analyses = {}
"""

CIRCLE_SWEEP = """scenario = circle
firstvar.count = 2
analyses = {}
"""


def warmed_up(tmp_path, text):
    """The config of `text` (every analysis) and its state after one
    untraced run of every analysis: lazy imports and process-wide caches
    are not the runners' working memory."""
    path = tmp_path / "run.cfg"
    path.write_text(text.format(", ".join(ANALYSES)), encoding="utf-8")
    cfg = load_config(path, tmp_path / "out")
    state, = build(cfg.scenario)
    for name in ANALYSES:
        _RUNNERS[name](cfg, state)
    return cfg, state


@pytest.fixture(scope="module")
def sphere(tmp_path_factory):
    """The 65^3 sphere, warmed up."""
    return warmed_up(tmp_path_factory.mktemp("sphere"), SPHERE_65)


def runner_peaks(cfg) -> dict:
    """Each runner's traced peak in grid arrays, each on a new state, which
    holds u and f alone, so that no value another runner computed spares it
    its work."""
    grid_array = 8 * np.prod(cfg.scenario.grid.points)
    peaks = {}
    for name in ANALYSES:
        state, = build(cfg.scenario)
        peaks[name] = traced_peak(
            lambda: _RUNNERS[name](cfg, state))[1] / grid_array
    return peaks


def test_build_peaks_within_a_grid_array_above_u_and_f(sphere):
    cfg, _ = sphere
    states, peak = traced_peak(lambda: build(cfg.scenario))
    kept = sum(st.u.values.nbytes + st.f.values.nbytes for st in states)
    assert kept == 2 * GRID_ARRAY
    assert (peak - kept) / GRID_ARRAY <= 0.95, (peak - kept) / GRID_ARRAY


def test_each_runner_peaks_within_a_grid_array(sphere):
    peaks = runner_peaks(sphere[0])
    assert max(peaks.values()) <= 0.95, peaks


def test_each_runner_peaks_within_a_grid_array_in_2d(tmp_path):
    peaks = runner_peaks(warmed_up(tmp_path, CIRCLE_01)[0])
    assert max(peaks.values()) <= 1.0, peaks


def test_a_state_caches_no_grid_array(sphere):
    # after every analysis the state's memo holds no grid-sized array: the
    # norm report and the curvature norm at the default q0 (which the
    # report's walk fills; the Hoelder chain forms its own in its one pass)
    # as scalars, and the ball identity's four columns, one read-only row
    # per radius, which the inert default slab reads too
    cfg, state = sphere
    params = cfg.scenario.params
    ball = cfg.geometry["monotonicity"]
    assert np.array_equal(cfg.geometry["slab"]["radii"], ball["radii"])
    columns = ("ball_columns", np.asarray(ball["center"], float).tobytes(),
               ball["radii"].tobytes(), params.supersample, None)
    assert set(state._derived) == {
        ("norm_report", params),
        ("curvature_norm", 3.0, params.grad_threshold), columns}
    cols = state._derived[columns]
    assert cols.shape == (len(ball["radii"]), 4) and not cols.flags.writeable
    assert cols.nbytes < GRID_ARRAY / 1000
    scalars = [*vars(state._derived[("norm_report", params)]).values(),
               *(v for key, value in state._derived.items()
                 if key[0] == "curvature_norm" for v in value)]
    assert all(isinstance(v, float) for v in scalars)


def test_integrate_holds_no_grid_sized_scratch():
    g = Grid(extent=(2.0,) * 3, points=(65,) * 3)
    f = ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))
    integrate(f)  # lazy imports and caches first
    _, peak = traced_peak(lambda: integrate(f))
    assert peak < 0.1 * f.values.nbytes, peak / f.values.nbytes


def test_newton_solve_peaks_within_sixteen_grid_arrays():
    # a solved circle's near start: pseudo-transient steps, then two-level
    # pure-Newton steps, whose linear solves set the peak
    eps = 0.05
    g = Grid(extent=(2.0, 2.0), points=(161, 161), origin=(-1.0, -1.0))
    u_star = build_radial_layer(g, eps, (0.0, 0.0), 0.5)
    f = manufactured_forcing(u_star, eps)
    rng = np.random.default_rng(0)
    init = ScalarField(g, u_star.values + 0.01 * rng.standard_normal(g.shape))
    solve_stationary(g, eps, f, init)  # lazy imports and caches first
    state, peak = traced_peak(lambda: solve_stationary(g, eps, f, init))
    assert state.residual_norm <= 1e-10
    assert peak / f.values.nbytes <= 16, peak / f.values.nbytes


SOLVED_161 = {
    "solved-circle": SolvedFromForcingProfile(center=(0.0, 0.0), radius=0.5,
                                              noise_amplitude=0.01),
    "bubble": SolvedBubbleProfile(center=(0.0, 0.0), radius=0.5)}


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before CPython 3.11 the caller's frame holds a call's arguments, so "
    "the solve cannot free the initial guess it is passed"))
@pytest.mark.parametrize("name", SOLVED_161)
def test_solved_build_holds_no_initial_guess(name):
    # the guess is freed with the first step's u: holding it through the
    # solve, as a build that names it does, would trace about 20.6 arrays
    g = Grid(extent=(2.0, 2.0), points=(161, 161), origin=(-1.0, -1.0))
    scenario = Scenario(name=name, grid=g, epsilons=(0.05,),
                        profile=SOLVED_161[name])
    build(scenario)  # lazy imports and caches first
    (state,), peak = traced_peak(lambda: build(scenario))
    assert state.residual_norm <= 1e-10
    grid_array = state.u.values.nbytes
    assert peak / grid_array <= 17, peak / grid_array


def test_a_run_holds_one_state_at_a_time(tmp_path):
    # the corpus circle's three epsilons: a run that held every state's u
    # and f until its last analysis would trace about 7 arrays
    path = tmp_path / "circle.cfg"
    path.write_text(CIRCLE_SWEEP.format(", ".join(ANALYSES)),
                    encoding="utf-8")
    cfg = load_config(path, tmp_path / "out")
    assert len(cfg.scenario.epsilons) == 3
    assert run(cfg) == 0  # lazy imports and caches first
    code, peak = traced_peak(lambda: run(cfg))
    assert code == 0
    grid_array = 8 * np.prod(cfg.scenario.grid.points)
    assert peak / grid_array <= 3.5, peak / grid_array
