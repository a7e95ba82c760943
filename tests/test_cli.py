"""Config parsing, CLI subcommands, exit codes, and output reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aclab
from aclab import build
from aclab.cli import (ANALYSES, ConfigError, load_config, main,
                       parse_config_text)

SMALL_SCENARIO = """
scenario.kind = planar
scenario.epsilon = 0.1
scenario.positions = 0.0
grid.extent = 2, 2
grid.points = 81, 81
grid.origin = -1, -1
"""


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


# ---------------------------------------------------------------- parsing

def test_parse_comments_and_blank_lines():
    kv = parse_config_text("# header\n\na.b = 1  # trailing\n c = x y \n")
    assert kv == {"a.b": "1", "c": "x y"}


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_load_config_unknown_scenario(tmp_path):
    path = write_cfg(tmp_path, "scenario = nope\nanalyses = norms\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(path)


def test_load_config_unknown_analysis(tmp_path):
    path = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms, bogus\n")
    with pytest.raises(ConfigError, match="unknown analysis"):
        load_config(path)


def test_load_config_negative_epsilon(tmp_path):
    body = SMALL_SCENARIO.replace("0.1", "-0.1") + "analyses = norms\n"
    with pytest.raises(ConfigError, match="positive"):
        load_config(write_cfg(tmp_path, body))


# ---------------------------------------------------------------- commands

def test_validate_and_exit_codes(tmp_path, capsys):
    good = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms\n")
    assert main(["validate", "--config", str(good)]) == 0
    bad = write_cfg(tmp_path, "scenario = nope\n", name="bad.cfg")
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(bad)]) == 2
    missing = tmp_path / "does-not-exist.cfg"
    assert main(["run", "--config", str(missing)]) == 2


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "planar-1" in out and "circle-sweep" in out


def test_minimal_run_smoke(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "norms.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "inline-planar"
    assert "norms" in summary["analyses"]


def test_firstvar_in_one_dimension(tmp_path):
    # q0 = n + 1 = 1 in 1-d, so the duality bound uses the sup norm of eta
    cfg = write_cfg(tmp_path, "scenario = stack-2-1d\nanalyses = firstvar\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "firstvar.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row)
        assert row[-1] == "1"


def test_registry_scenario_run(tmp_path):
    cfg = write_cfg(tmp_path, "scenario = planar-1\nanalyses = norms\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "norms.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_csv_headers_and_traceability(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO +
                    "analyses = norms, quantize, gdelta, monotonicity\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    headers = {
        "norms.csv": "name,value",
        "quantize.csv": ("line_id,K,theta_hat,nearest_k,residual,"
                         "potential_per_layer_min,potential_per_layer_max"),
        "gdelta.csv": "inequality,min_margin",
        "monotonicity.csv": ("r,ratio,lhs,term_xi,term_boundary,"
                             "term_forcing,residual"),
    }
    for fname, header in headers.items():
        first = (out / fname).read_text().splitlines()[0]
        assert first == header
    # summary norm values equal the CSV cells they came from
    summary = json.loads((out / "summary.json").read_text())
    cells = dict(line.split(",") for line
                 in (out / "norms.csv").read_text().splitlines()[1:])
    for name, value in summary["analyses"]["norms"]["values"].items():
        assert float(cells[name]) == value


def test_reruns_are_byte_identical(tmp_path):
    base = SMALL_SCENARIO + "analyses = norms, quantize, gdelta, slab\n"
    cfg1 = write_cfg(tmp_path, base + f"out = {tmp_path/'a'}\n", "a.cfg")
    cfg2 = write_cfg(tmp_path, base + f"out = {tmp_path/'b'}\n", "b.cfg")
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2)]) == 0
    for fname in ("norms.csv", "quantize.csv", "gdelta.csv", "slab.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_analysis_failure_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = monotonicity\n"
                    "monotonicity.radii = 0.01, 0.05, 5\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "resolution floor" in err


@pytest.mark.parametrize("analysis, geometry, axis", [
    # B_0.9((0.5, 0)) reaches past the wall x = 1
    ("monotonicity", "monotonicity.center = 0.5, 0\n"
     "monotonicity.radii = 0.2, 0.9, 8\n", 0),
    # the default slab planes lie h/2 inside the faces, so the slab clips
    # B_0.65((0, 0.5)) within 2h of the wall x_last = 1
    ("slab", "slab.center = 0, 0.5\nslab.radii = 0.55, 0.65, 5\n", 1),
], ids=("monotonicity", "slab"))
def test_ball_crossing_the_domain_margin_fails_without_a_csv(
        tmp_path, capsys, analysis, geometry, axis):
    cfg = write_cfg(tmp_path, "scenario.kind = circle\nscenario.epsilon = 0.1\n"
                    "grid.extent = 2, 2\ngrid.points = 81, 81\n"
                    f"grid.origin = -1, -1\nanalyses = {analysis}\n"
                    f"{geometry}out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"analysis failure: {analysis}: " in err
    assert f"2h domain margin on axis {axis}" in err
    assert not (tmp_path / "out" / f"{analysis}.csv").exists()


def test_stack_layers_that_fit_exactly_build(tmp_path):
    # the faces are exactly 6 eps from the layers: 0.5 - 0.2 = 6 * 0.05,
    # which floats round to 0.3 < 0.30000000000000004
    cfg = write_cfg(tmp_path, "scenario.kind = stack\nscenario.epsilon = 0.05\n"
                    "scenario.positions = -0.2, 0.2\ngrid.extent = 1, 1\n"
                    "grid.points = 81, 81\ngrid.origin = -0.5, -0.5\n"
                    f"analyses = norms\nout = {tmp_path/'out'}\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "norms.csv").exists()


@pytest.mark.parametrize("layers, message", [
    ("positions = -0.1, 0.0", "overlapping layers"),  # gap 0.1 < 4 eps
    ("positions = -0.75", "6 eps margin"),  # 0.25 from the face < 6 eps
    ("positions = 0.2, -0.2", "strictly increasing"),
    ("axis = 2", "not an axis of a 2-d grid"),
])
def test_validate_refuses_stacks_that_cannot_build(tmp_path, capsys,
                                                   layers, message):
    cfg = write_cfg(tmp_path, "scenario.kind = stack\nscenario.epsilon = 0.05\n"
                    f"scenario.{layers}\ngrid.extent = 2, 2\n"
                    "grid.points = 161, 161\ngrid.origin = -1, -1\n"
                    f"analyses = norms\nout = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error: scenario 'inline-stack'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_strict_escalates_warnings(tmp_path):
    # eps listed coarse-to-fine on a fixed grid: discrete xi+ grows as eps
    # shrinks for manufactured profiles, so the sweep flag warns
    body = SMALL_SCENARIO.replace("scenario.epsilon = 0.1",
                                  "scenario.epsilon = 0.15, 0.1")
    cfg = write_cfg(tmp_path, body + "analyses = sweep\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "warn"
    # one sweep row per epsilon
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 2
    assert main(["run", "--config", str(cfg), "--strict"]) == 1


def test_threads_match_serial(tmp_path):
    base = SMALL_SCENARIO + "analyses = norms, gdelta, quantize\n"
    cfg1 = write_cfg(tmp_path, base + f"out = {tmp_path/'s'}\n", "s.cfg")
    cfg2 = write_cfg(tmp_path, base + f"out = {tmp_path/'t'}\n", "t.cfg")
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2), "--threads", "3"]) == 0
    for fname in ("norms.csv", "gdelta.csv", "quantize.csv"):
        assert (tmp_path / "s" / fname).read_bytes() == \
            (tmp_path / "t" / fname).read_bytes()


def test_threads_match_serial_on_circle_all_analyses(tmp_path):
    # analyses running concurrently fill the per-state derived-field cache
    base = f"scenario = circle\nanalyses = {', '.join(ANALYSES)}\n"
    cfg1 = write_cfg(tmp_path, base + f"out = {tmp_path/'s'}\n", "s.cfg")
    cfg2 = write_cfg(tmp_path, base + f"out = {tmp_path/'t'}\n", "t.cfg")
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2), "--threads", "2"]) == 0
    csvs = sorted(p.name for p in (tmp_path / "s").glob("*.csv"))
    assert len(csvs) == len(ANALYSES)
    for fname in csvs:
        assert (tmp_path / "s" / fname).read_bytes() == \
            (tmp_path / "t" / fname).read_bytes()


def test_threaded_failure_names_the_analysis(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms, monotonicity\n"
                    "monotonicity.radii = 0.01, 0.05, 5\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg), "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert "analysis failure: monotonicity: " in err
    assert "resolution floor" in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failures"][0].startswith("monotonicity: ")


@pytest.mark.parametrize("line, key", [
    ("analysis.q0 = abc", "analysis.q0"),
    ("analysis.supersample = 4.5", "analysis.supersample"),
    ("monotonicity.radii = 0.1, 0.2", "monotonicity.radii"),
    ("monotonicity.radii = 0.1, 0.3, 2.5", "monotonicity.radii"),
    ("slab.radii = 0.1, 0.3, 0", "slab.radii"),
    ("slab.t = 0.1", "slab.t"),
    ("slab.center = 0, 0, 0", "slab.center"),
    ("monotonicity.center = 0", "monotonicity.center"),
    ("firstvar.count = many", "firstvar.count"),
    ("quantize.tau = x", "quantize.tau"),
    ("scenario.seed = abc", "scenario.seed"),
    ("scenario.radius = abc", "scenario.radius"),
    ("scenario.radus = 0.5", "scenario.radus"),
    ("grid.extent = a, 2", "grid.extent"),
    ("grid.points = 81.5, 81", "grid.points"),
    ("scenario.epsilon = x", "scenario.epsilon"),
    ("strict = maybe", "strict"),
    ("analysis.tau = 2", "analysis.tau"),
    ("grid.points = 4, 4", "grid.points"),
    ("analysis.q0 = 0.5", "analysis.q0"),
])
def test_malformed_values_are_config_errors(tmp_path, capsys, line, key):
    # the malformed line replaces the scenario's own line for that key
    base = "".join(f"{kept}\n" for kept in SMALL_SCENARIO.splitlines()
                   if not kept.startswith(f"{key} ="))
    cfg = write_cfg(tmp_path, base + "analyses = norms\n"
                    f"{line}\nout = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_corpus_config_seed_keys(tmp_path):
    # the keys a benchmark config adds to a named scenario
    body = "scenario = circle\nanalyses = norms\nfirstvar.seed = 3\n"
    good = write_cfg(tmp_path, body + "scenario.seed = 3\n")
    assert main(["validate", "--config", str(good)]) == 0
    bad = write_cfg(tmp_path, body + "scenario.seed = abc\n", name="bad.cfg")
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("head, line, key", [
    ("scenario = circle", "grid.points = 81, 81", "grid.points"),
    ("scenario = circle", "scenario.kind = constant", "scenario.kind"),
    ("scenario = circle", "scenario.radius = 0.1", "scenario.radius"),
    ("scenario = circle", "scenario.name = x", "scenario.name"),
    ("scenario.kind = planar", "scenario.radius = 0.1", "scenario.radius"),
    ("scenario.kind = constant", "scenario.positions = 0", "scenario.positions"),
])
def test_keys_the_scenario_does_not_take_are_config_errors(
        tmp_path, capsys, head, line, key):
    # corpus configs take no grid or profile keys; inline configs take
    # only the profile keys of their scenario.kind
    grid = "" if head.startswith("scenario =") else (
        "scenario.epsilon = 0.1\ngrid.extent = 2, 2\ngrid.points = 81, 81\n"
        "grid.origin = -1, -1\n")
    cfg = write_cfg(tmp_path, f"{head}\n{grid}{line}\nanalyses = norms\n"
                    f"out = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SPHERE_3D = """
scenario.kind = circle
scenario.epsilon = 0.2
grid.extent = 2, 2, 2
grid.points = 41, 41, 41
grid.origin = -1, -1, -1
"""


def test_inline_center_defaults_to_one_zero_per_axis(tmp_path):
    cfg = load_config(write_cfg(tmp_path, SPHERE_3D + "scenario.radius = 0.3\n"))
    assert cfg.scenario.profile.center == (0.0, 0.0, 0.0)
    u = build(cfg.scenario)[0].u.values
    # a ball, not a cylinder along z: inside at the centre, outside on the axis
    assert u[20, 20, 20] < -0.9
    assert u[20, 20, 38] > 0.9
    line = write_cfg(tmp_path, "scenario.kind = circle\nscenario.epsilon = 0.1\n"
                     "grid.extent = 2\ngrid.points = 81\ngrid.origin = -1\n",
                     "line.cfg")
    assert load_config(line).scenario.profile.center == (0.0,)


def test_inline_center_must_match_the_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SPHERE_3D + "scenario.center = 0, 0\n"
                    f"out = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match="scenario.center: takes 3 values"):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error: scenario.center" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = Path(aclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "aclab", "list-scenarios"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "circle-sweep" in proc.stdout
