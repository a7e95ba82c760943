"""Memory budget of the analyses: on a 65^3 manufactured sphere, each CLI
runner's traced peak above the state's fields (u, f and the three cached
density fields) stays within 0.95 grid arrays. The gradient of u and the
node weights are not kept: each reader builds them a slab of axis-0 planes
at a time, where it reads them. Every whole-domain integral is summed a
slab at a time with no whole-grid buffer (`fields._integrals`); the ball
identity's two radial integrands are built on the index box of the
largest ball only. The measured peaks are 0.88 (`monotonicity`, `slab`:
two box arrays and the box's node distances), 0.46 (`firstvar`), 0.45
(`gdelta`), 0.17 (`norms`), 0.13 (`sweep`) and 0.01 (`quantize`)."""

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


def test_a_state_caches_three_densities(sphere):
    # after every analysis: mu, xi and |grad u|, and no gradient
    state = sphere[1][0]
    assert list(state._derived) == ["density_fields"]
    dens = state._derived["density_fields"]
    assert sum(f.values.nbytes for f in vars(dens).values()) == 3 * GRID_ARRAY


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
