"""Memory budget of the build and the analyses on a 65^3 manufactured
sphere, in grid arrays. A state caches |grad u|^2 and nothing else: mu, xi,
|grad u|, the gradient of u and the node weights are formed where they are
read, a slab of axis-0 planes (or fewer nodes) at a time. Every
whole-domain integral is summed a slab at a time with no whole-grid buffer
(`fields._integrals`); the ball identity builds its two radial integrands
on the index box of the largest ball only, and forms mu and xi from
|grad u|^2 and u on the nodes each radius gathers, about half a slab's
worth at a time.

The build's traced peak above the u and f it returns stays within 0.95
grid arrays: the forcing and the residual max-norm are formed a slab at a
time. It measures 0.13; 4.0 when `manufactured_forcing` and `make_state`
formed the Laplacian and the residual whole.

Each CLI runner's traced peak above the state's fields (u, f and
|grad u|^2) stays within 0.95 grid arrays. The measured peaks are 0.87
(`monotonicity`) and 0.89 (`slab`): two box arrays, the box's node
distances and the scratch of the band fractions; 0.48 (`firstvar`), 0.45
(`gdelta`), 0.20 (`norms`), 0.15 (`sweep`) and 0.01 (`quantize`)."""

import tracemalloc

import numpy as np
import pytest

from aclab import Grid, ScalarField, build, density_fields, integrate
from aclab.cli import ANALYSES, _RUNNERS, load_config

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


@pytest.fixture(scope="module")
def sphere(tmp_path_factory):
    """The config and states of the 65^3 sphere after one untraced run of
    every analysis: lazy imports and process-wide caches are not the
    runners' working memory."""
    tmp_path = tmp_path_factory.mktemp("sphere")
    path = tmp_path / "sphere.cfg"
    path.write_text(SPHERE_65.format(", ".join(ANALYSES)), encoding="utf-8")
    cfg = load_config(path, tmp_path / "out")
    states = build(cfg.scenario)
    density_fields(states[0])
    for name in ANALYSES:
        _RUNNERS[name](cfg, states)
    return cfg, states


def test_build_peaks_within_a_grid_array_above_u_and_f(sphere):
    cfg, _ = sphere
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        states = build(cfg.scenario)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(st.u.values.nbytes + st.f.values.nbytes for st in states)
    assert kept == 2 * GRID_ARRAY
    assert (peak - kept) / GRID_ARRAY <= 0.95, (peak - kept) / GRID_ARRAY


def test_each_runner_peaks_within_a_grid_array(sphere):
    cfg, states = sphere
    peaks = {}
    tracemalloc.start()
    try:
        for name in ANALYSES:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _RUNNERS[name](cfg, states)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / GRID_ARRAY
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) <= 0.95, peaks


def test_a_state_caches_one_density_array(sphere):
    # after every analysis: |grad u|^2, read-only, and no other grid array
    # than the state's own u
    state = sphere[1][0]
    assert list(state._derived) == ["density_fields"]
    dens = state._derived["density_fields"]
    arrays = [v for v in vars(dens).values() if isinstance(v, np.ndarray)]
    assert [a.nbytes for a in arrays] == [GRID_ARRAY]
    assert arrays[0] is dens.grad_sq and not dens.grad_sq.flags.writeable
    assert dens.u is state.u


def test_integrate_holds_no_grid_sized_scratch():
    g = Grid(extent=(2.0,) * 3, points=(65,) * 3)
    f = ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))
    integrate(f)  # lazy imports and caches first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        integrate(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * f.values.nbytes, peak / f.values.nbytes
