"""Memory budget of the analyses: on a 65^3 manufactured sphere, each CLI
runner's traced peak above the state's cached fields (u, f, the gradient,
the four density fields, the node weights) stays within 2.5 grid arrays.
Every whole-grid integrand is built a slab at a time into at most two
whole-grid buffers (`fields._stream`); the rest is slab- or box-sized."""

import tracemalloc

from aclab import build, density_fields
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


def test_each_runner_peaks_within_two_and_a_half_grid_arrays(tmp_path):
    path = tmp_path / "sphere.cfg"
    path.write_text(SPHERE_65.format(", ".join(ANALYSES)), encoding="utf-8")
    cfg = load_config(path, tmp_path / "out")
    states = build(cfg.scenario)
    density_fields(states[0])
    states[0].grid.node_weights()
    # one untraced pass first: lazy imports and process-wide caches are
    # not the runners' working memory
    for name in ANALYSES:
        _RUNNERS[name](cfg, states)
    grid_array = 8 * 65 ** 3
    peaks = {}
    tracemalloc.start()
    try:
        for name in ANALYSES:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _RUNNERS[name](cfg, states)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / grid_array
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) <= 2.5, peaks
