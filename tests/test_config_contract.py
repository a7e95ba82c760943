"""The config contract on generated inline configs: when `validate` exits 0,
`run` exits 0 (or, for a solved kind, exits 1 naming the SolverError of a
solve that failed); exit 2 names a config key; no command raises; no CSV
cell is non-finite.

The configs are drawn from `cli._KEYS`: each key an inline scenario of the
drawn kind takes is written some of the time, with a value from `VALUES`.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from aclab.cli import ANALYSES, _KEYS, main

KINDS = ("planar", "stack", "circle", "constant")
SOLVED_KINDS = ("bubble", "solved-circle")
BALL_ANALYSES = ("monotonicity", "slab")

# keys the generated configs leave out (the corpus key and `out`) or always
# write (the rest)
LEFT_OUT = {"scenario", "out", "scenario.kind",
            "grid.extent", "grid.points", "grid.origin", "grid.boundary",
            "scenario.epsilon", "analyses"}


def _text(values) -> str:
    return ", ".join(repr(v) for v in values)


@st.composite
def _point(draw, grid):
    """A point near the domain, some of the time a little outside it."""
    return _text(draw(st.floats(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)))
                 for lo, hi in zip(grid["lo"], grid["hi"]))


@st.composite
def _radii(draw, grid):
    h = grid["h"]
    start = draw(st.integers(4, 16)) * h
    stop = start + draw(st.integers(1, 24)) * h
    return _text((start, stop, draw(st.integers(5, 9))))


@st.composite
def _slab(draw, grid):
    lo, hi = grid["lo"][-1], grid["hi"][-1]
    planes = draw(st.lists(st.floats(lo - 2 * grid["h"], hi + 2 * grid["h"]),
                           min_size=2, max_size=2))
    return _text(sorted(planes) if draw(st.integers(0, 7)) else planes)


@st.composite
def _positions(draw, grid):
    """One to three layers about the middle of the last axis, 3.5 to 6 eps
    apart: under 4 eps they overlap."""
    mid = 0.5 * (grid["lo"][-1] + grid["hi"][-1])
    k = draw(st.integers(1, 3))
    gap = draw(st.floats(3.5, 6.0)) * grid["eps"]
    return _text(mid + gap * (i - 0.5 * (k - 1)) for i in range(k))


def _axis(grid):
    return st.integers(-grid["ndim"], grid["ndim"] - 1).map(str)


def _fixed(*choices):
    return lambda grid: st.sampled_from(choices)


# key -> strategy of its value text, given the grid
VALUES = {
    "scenario.name": _fixed("fuzz"),
    "scenario.seed": lambda grid: st.integers(0, 99).map(str),
    "scenario.positions": _positions,
    "scenario.axis": _axis,
    "scenario.first_sign": _fixed("1", "-1"),
    "scenario.center": _point,
    "scenario.radius": lambda grid: st.floats(
        0.05, 0.3 * min(hi - lo for lo, hi in zip(grid["lo"], grid["hi"]))
    ).map(repr),
    "scenario.value": lambda grid: st.floats(-1.5, 1.5).map(repr),
    "scenario.noise": lambda grid: st.floats(0.0, 0.1).map(repr),
    "analysis.q0": lambda grid: st.floats(grid["ndim"] - 0.5, 4.0).map(repr),
    "analysis.grad_threshold": _fixed("0", "1e-8", "0.5"),
    "analysis.supersample": lambda grid: st.integers(1, 4).map(str),
    "analysis.tau": lambda grid: st.floats(0.05, 0.95).map(repr),
    "monotonicity.center": _point,
    "monotonicity.radii": _radii,
    "slab.center": _point,
    "slab.radii": _radii,
    "slab.t": _slab,
    "gdelta.delta": lambda grid: st.lists(st.floats(0.01, 0.5), min_size=1,
                                          max_size=2).map(_text),
    "gdelta.c0": lambda grid: st.floats(1.0, 3.0).map(repr),
    "firstvar.count": lambda grid: st.integers(1, 2).map(str),
    "firstvar.seed": lambda grid: st.integers(0, 99).map(str),
}


def test_every_key_is_drawn_or_left_out():
    assert sorted(VALUES) == sorted(set(_KEYS) - LEFT_OUT)


@st.composite
def inline_configs(draw, solved=False):
    """An inline scenario on a 1-, 2- or 3-d grid, random analyses, and
    each other key it takes a quarter of the time: planar, stack, circle or
    constant on 33 to 65 points per axis (21 to 25 in 3-d, and 65 on a
    stack's last axis) with eps from 4h to 6h; or, `solved`, bubble or
    solved-circle on 13 to 33 points per axis with eps from 4h to 8h, a
    drawn radius and no ball identity or its keys."""
    kind = draw(st.sampled_from(SOLVED_KINDS if solved else KINDS))
    ndim = draw(st.integers(1, 3))
    sizes = (13, 33) if solved else (21, 25) if ndim == 3 else (33, 65)
    points = draw(st.lists(st.integers(*sizes), min_size=ndim, max_size=ndim))
    # a layer stack needs 6 eps to each face and 4 eps between layers: a
    # long last axis, eps at most 5h and the default position 0 in the middle
    stack = kind in ("planar", "stack")
    if stack:
        points[-1] = 65
    h = draw(st.sampled_from((1 / 32, 1 / 16, 1 / 8)))
    boundary = draw(st.sampled_from(("zero-flux", "periodic")))
    # periodic nodes tile the torus: extent = h * points
    extent = [h * (n if boundary == "periodic" else n - 1) for n in points]
    shift = 0.5 if stack else draw(st.sampled_from((0.5, 0.4)))
    lo = [-shift * e for e in extent]
    most = 8 if solved else 5 if stack else 6
    eps = [m * h for m in draw(st.lists(st.integers(4, most),
                                        min_size=1, max_size=2))]
    grid = {"ndim": ndim, "h": h, "eps": max(eps), "lo": lo,
            "hi": [a + e for a, e in zip(lo, extent)]}
    # the identities' balls seldom fit a tiny grid, and their refusals are
    # those of the circle: a solved config draws the other analyses and
    # their keys
    drawn = [a for a in ANALYSES if not (solved and a in BALL_ANALYSES)]
    analyses = draw(st.sets(st.sampled_from(drawn), min_size=1))
    lines = [f"scenario.kind = {kind}", f"grid.extent = {_text(extent)}",
             f"grid.points = {_text(points)}", f"grid.origin = {_text(lo)}",
             f"grid.boundary = {boundary}",
             f"scenario.epsilon = {_text(eps)}",
             f"analyses = {', '.join(sorted(analyses))}"]
    takes = {"inline", "grid", "scenario", "params", kind, *drawn}
    for key, spec in _KEYS.items():
        # the default radius 0.5 does not fit a tiny grid: a solved
        # kind's radius is always drawn
        if (key in VALUES and not takes.isdisjoint(spec.owners)
                and (draw(st.integers(0, 3)) == 3
                     or solved and key == "scenario.radius")):
            lines.append(f"{key} = {draw(VALUES[key](grid))}")
    return "\n".join(lines) + "\n"


def _command(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def check_contract(tmp_dir, body):
    """Validate and run `body`; any exception fails the caller. Returns the
    exit codes of validate and run and run's stderr."""
    cfg = tmp_dir / "contract.cfg"
    out = Path(tempfile.mkdtemp(dir=tmp_dir)) / "out"
    cfg.write_text(body, encoding="utf-8")
    validated, _ = _command("validate", "--config", str(cfg))
    code, err = _command("run", "--config", str(cfg), "--out", str(out))
    assert validated in (0, 2), body
    if validated == 0 and code == 1:
        # a Newton solve may fail on a config that validates, but by name
        assert re.match(r"error: scenario '[^']*' failed at eps=\S+: "
                        r"SolverError: ", err), f"{body}\n{err}"
        return validated, code, err
    assert code == validated, f"{body}\n{err}"
    if code == 2:
        keys = re.match(r"config error: ([\w.]+(?:, [\w.]+)*): ", err)
        assert keys and set(keys[1].split(", ")) <= set(_KEYS), err
        return validated, code, err
    for csv in out.glob("*.csv"):
        for line in csv.read_text(encoding="utf-8").splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a row label
                assert math.isfinite(value), f"{body}\n{csv.name}: {line}"
    return validated, code, err


# h = 1/32, eps = 4h
GRID_2D = ("grid.extent = 2, 2\ngrid.points = 65, 65\ngrid.origin = -1, -1\n"
           "scenario.epsilon = 0.125\n")

# The classes of config that validated and then failed in `run` before the
# analyses' geometry checks moved into load_config.
CASES = {
    # radii start under the floor max(4h, eps) = 0.125
    "radius-floor": "scenario.kind = planar\nanalyses = monotonicity\n"
                    "monotonicity.radii = 0.05, 0.5, 5\n",
    # the default center (0.9, 0) is 0.1 from the wall: no default radii fit
    "default-radii": "scenario.kind = circle\nscenario.radius = 0.4\n"
                     "scenario.center = 0.5, 0\nanalyses = slab\n",
    # the plane t = 0.5 is the pole of B_0.5
    "slab-pole": "scenario.kind = planar\nanalyses = slab\n"
                 "slab.radii = 0.25, 0.5, 5\nslab.t = -0.8, 0.5\n",
    # B_0.6((0.5, 0)) crosses the wall x = 1
    "ball-margin": "scenario.kind = constant\nanalyses = monotonicity\n"
                   "monotonicity.center = 0.5, 0\n"
                   "monotonicity.radii = 0.25, 0.6, 5\n",
    # the quantize lines start 0.05 from the wall
    "quantize-off-centre": "scenario.kind = circle\nanalyses = quantize\n"
                           "scenario.center = 0.95, 0\n",
    # numbers that parse but are not finite
    "epsilon-inf": "scenario.kind = circle\nscenario.epsilon = inf\n",
    "extent-inf": "scenario.kind = constant\ngrid.extent = inf, inf\n",
    "origin-nan": "scenario.kind = circle\ngrid.origin = nan, -1\n",
    "q0-inf": "scenario.kind = circle\nanalysis.q0 = inf\n",
    "radius-inf": "scenario.kind = circle\nscenario.radius = inf\n",
}


@pytest.mark.parametrize("body", CASES.values(), ids=CASES)
def test_config_contract_cases(tmp_path, body):
    # the lines of a case replace GRID_2D's lines for their keys
    keys = {line.partition("=")[0] for line in body.splitlines()}
    grid = "".join(line for line in GRID_2D.splitlines(keepends=True)
                   if line.partition("=")[0] not in keys)
    check_contract(tmp_path, grid + body)


# An identity's default center is the interface point: (1.2, 0) for a
# circle at (0.7, 0) with R = 0.5, outside the grid, so only the center key
# can fix the refusal, with the default radii and with radii set.
DEFAULT_CENTER = ("scenario.kind = circle\nscenario.center = 0.7, 0\n"
                  "scenario.radius = 0.5\nanalyses = monotonicity\n")


@pytest.mark.parametrize("radii, message", [
    ("", "domain too small for a radius range"),
    ("monotonicity.radii = 0.2, 0.5, 5\n", "2h domain margin on axis 0")],
    ids=["default-radii", "radii-set"])
def test_a_defaulted_center_is_named(tmp_path, radii, message):
    body = GRID_2D + DEFAULT_CENTER + radii
    check_contract(tmp_path, body)
    cfg = tmp_path / "center.cfg"
    cfg.write_text(body, encoding="utf-8")
    code, err = _command("validate", "--config", str(cfg))
    assert code == 2
    assert ("config error: monotonicity.center, monotonicity.radii: "
            in err) and message in err


# A bubble with no interface on the grid: the default R = 0.5 covers every
# node of a 13^2 grid of extent 0.375, and a sphere centred at (3, 0)
# misses every node of GRID_2D. Before `validate` refused them by the
# radius, both validated and failed in `run` after a whole Newton solve.
@pytest.mark.parametrize("body, side", [
    ("grid.extent = 0.375, 0.375\ngrid.points = 13, 13\n"
     "grid.origin = -0.1875, -0.1875\nscenario.epsilon = 0.125\n", "inside"),
    (GRID_2D + "scenario.center = 3, 0\n", "outside")],
    ids=["inside", "outside"])
def test_a_bubble_without_interface_is_refused_by_radius(tmp_path, body,
                                                         side):
    body = "scenario.kind = bubble\nanalyses = norms\n" + body
    check_contract(tmp_path, body)
    cfg = tmp_path / "bubble.cfg"
    cfg.write_text(body, encoding="utf-8")
    code, err = _command("validate", "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error: scenario.radius: ")
    assert f"every grid node lies {side} the bubble" in err


# A bubble of radius 2.5 eps loses its interface in the solve, so both
# `validate` and `run` refuse it by both keys; a radius just above passes
# `validate`.
def test_a_bubble_at_most_2_5_eps_is_refused_by_radius_and_epsilon(tmp_path):
    cfg = tmp_path / "bubble.cfg"
    body = "scenario.kind = bubble\nanalyses = norms\n" + GRID_2D
    cfg.write_text(body + "scenario.radius = 0.3126\n", encoding="utf-8")
    assert _command("validate", "--config", str(cfg)) == (0, "")
    cfg.write_text(body + "scenario.radius = 0.3125\n", encoding="utf-8")
    for argv in (("validate",), ("run", "--out", str(tmp_path / "out"))):
        code, err = _command(*argv, "--config", str(cfg))
        assert code == 2
        assert err.startswith(
            "config error: scenario.radius, scenario.epsilon: ")
        assert "must exceed 2.5 eps" in err
    assert not (tmp_path / "out").exists()


# The example: h = 1/4 leaves the test fields' bump no room inside its 5h
# margins, so `validate` must refuse it as `run` does.
@settings(derandomize=True, deadline=None, max_examples=120)
@given(body=inline_configs())
@example(body="scenario.kind = constant\nscenario.epsilon = 1.0\n"
              "grid.extent = 2, 2\ngrid.origin = -1, -1\n"
              "grid.points = 9, 9\nanalyses = firstvar\n")
def test_config_contract(tmp_path_factory, body):
    check_contract(tmp_path_factory.getbasetemp(), body)


def _bubble(radius):
    return ("scenario.kind = bubble\nanalyses = norms\n" + GRID_2D
            + f"scenario.radius = {radius}\n")


# Bubbles on GRID_2D that validate, with the exit code and a part of the
# stderr of their run: at R = 3 eps the solve converges; R = 2.64 eps
# clears the 2.5 eps floor of `validate`, yet its solve loses the
# interface.
SOLVED_CASES = {
    _bubble(0.375): (0, ""),
    _bubble(0.33): (1, "SolverError: bubble solve lost its interface"),
}


# Of the 60 drawn examples, 23 solved circles run clean in 1-3 d and one
# 1-d bubble is refused by key. The 36 bubbles in 2-d and 3-d are all
# refused by scenario.radius and scenario.epsilon before any solve: a drawn
# radius is at most 0.3 extents, so at most 2.5 eps on these grids, and a
# critical bubble that small loses its interface. So the fixed examples of
# SOLVED_CASES carry the path from `validate` exit 0 to a bubble's solve.
@settings(derandomize=True, deadline=None, max_examples=60)
@given(body=inline_configs(solved=True))
@example(body=_bubble(0.375))
@example(body=_bubble(0.33))
def test_solved_config_contract(tmp_path_factory, body):
    outcome = check_contract(tmp_path_factory.getbasetemp(), body)
    if body in SOLVED_CASES:
        code, text = SOLVED_CASES[body]
        assert outcome[:2] == (0, code) and text in outcome[2], outcome
