"""Config parsing, CLI subcommands, exit codes, and output reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aclab
from aclab import build, cli
from aclab.cli import (ANALYSES, ConfigError, _KEYS, load_config, main,
                       parse_config_text)

SMALL_SCENARIO = """
scenario.kind = planar
scenario.epsilon = 0.1
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
    # a byte that is not UTF-8, in a comment
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"scenario = planar-1\n# \xff\n")
    capsys.readouterr()
    for command in ("validate", "run"):
        assert main([command, "--config", str(binary)]) == 2
        assert (f"config error: cannot read config {binary}: 'utf-8' codec"
                in capsys.readouterr().err)


@pytest.mark.parametrize("threads", ["0", "-3", "2"])
def test_threads_other_than_one_is_a_usage_error(tmp_path, capsys, threads):
    # --threads takes only the 1 the benchmark's command line passes
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms\n"
                    f"out = {tmp_path/'out'}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg), "--threads", threads])
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out, reason", [
    ("file", "File exists"), ("file/sub", "Not a directory")])
def test_an_unusable_output_directory_is_a_usage_error(tmp_path, capsys,
                                                      monkeypatch, out,
                                                      reason):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms\n")
    # refused before any state is built
    monkeypatch.setattr(aclab.scenarios, "_build_state", None)
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot use output directory {tmp_path / out}: {reason}\n")


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


def failing_runner(cfg, state):
    raise ValueError("no identity on this state")


def test_analysis_failure_exits_one(tmp_path, capsys, monkeypatch):
    # load_config refuses what the analyses refuse, so a runner that raises
    # stands in for an analysis failure
    monkeypatch.setitem(cli._RUNNERS, "monotonicity", failing_runner)
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms, monotonicity\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "analysis failure: monotonicity: no identity on this state" in err
    assert (tmp_path / "out" / "norms.csv").exists()
    assert not (tmp_path / "out" / "monotonicity.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failures"][0].startswith("monotonicity: ")


def test_an_overflowing_curvature_norm_is_refused_by_name(tmp_path, capsys):
    # (|f|/(eps|grad u|))^2000 overflows: the refusal names the sum
    cfg = write_cfg(tmp_path, SMALL_SCENARIO.replace("planar", "circle")
                    + "analyses = norms\nanalysis.q0 = 2000\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg)]) == 1
    assert ("analysis failure: norms: lambda_hat must be finite"
            in capsys.readouterr().err)


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
    key = "scenario." + layers.split(" =")[0]
    assert (f"config error: {key}: scenario 'inline-stack'"
            in capsys.readouterr().err)
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


@pytest.mark.parametrize("body", [
    SMALL_SCENARIO.replace("scenario.epsilon = 0.1",
                           "scenario.epsilon = 0.1, 0.1000001"),
    "scenario = circle\nscenario.epsilon = 0.1, 0.05, 0.1\n"],
    ids=["inline", "corpus"])
def test_epsilons_that_share_a_label_are_refused(tmp_path, capsys, body):
    # norms and summary.json key each epsilon's results by f"{eps:g}"
    cfg = write_cfg(tmp_path,
                    body + f"analyses = norms\nout = {tmp_path/'out'}\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2  # one refusal each
    for line in lines:
        assert re.match(r"config error: scenario\.epsilon: epsilons 0\.1 and "
                        r"0\.1\d* share the label eps=0\.1$", line), line
    assert not (tmp_path / "out").exists()


def sweep_flags(tmp_path, epsilons):
    out = tmp_path / epsilons.replace(", ", "_")
    cfg = write_cfg(tmp_path, "scenario.kind = circle\nscenario.center = 0, 0\n"
                    f"scenario.epsilon = {epsilons}\ngrid.extent = 2, 2\n"
                    "grid.points = 257, 257\ngrid.origin = -1, -1\n"
                    f"analyses = sweep\nout = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    summary = json.loads((out / "summary.json").read_text())
    return [row.split(",")[0] for row in rows], summary["analyses"]["sweep"]


def test_sweep_flag_reads_epsilons_in_decreasing_order(tmp_path):
    # xi+ of the same 257^2 circle does not fall from eps 0.1 to 0.05, in
    # whichever order the config lists them; the rows keep the config's
    rows, fine_first = sweep_flags(tmp_path, "0.05, 0.1")
    assert rows == ["0.050000000000000003", "0.10000000000000001"]
    rows, coarse_first = sweep_flags(tmp_path, "0.1, 0.05")
    assert rows == ["0.10000000000000001", "0.050000000000000003"]
    assert fine_first == coarse_first
    assert coarse_first["flags"] == {"xi_plus_decreasing": "warn"}


def test_a_build_failing_at_a_later_epsilon_writes_nothing(tmp_path, capsys,
                                                          monkeypatch):
    # the second epsilon's build raises once the first state is built
    build_state = aclab.scenarios._build_state

    def failing_at_second(scenario, eps):
        if eps == 0.1:
            raise RuntimeError("no state at this epsilon")
        return build_state(scenario, eps)

    monkeypatch.setattr(aclab.scenarios, "_build_state", failing_at_second)
    body = SMALL_SCENARIO.replace("scenario.epsilon = 0.1",
                                  "scenario.epsilon = 0.15, 0.1")
    cfg = write_cfg(tmp_path, body + f"analyses = {', '.join(ANALYSES)}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: scenario 'inline-planar' failed at eps=0.1: "
        "RuntimeError: no state at this epsilon\n")
    assert not list(out.glob("*.csv"))
    assert not (out / "summary.json").exists()


MALFORMED = [
    ("analysis.q0 = abc", "analysis.q0"),
    ("analysis.supersample = 4.5", "analysis.supersample"),
    # subcell work grows as supersample^d: at most 32
    ("analysis.supersample = 33", "analysis.supersample"),
    ("analysis.supersample = 100000", "analysis.supersample"),
    ("monotonicity.radii = 0.1, 0.2", "monotonicity.radii"),
    ("monotonicity.radii = 0.1, 0.3, 2.5", "monotonicity.radii"),
    ("slab.radii = 0.1, 0.3, 0", "slab.radii"),
    ("slab.t = 0.1", "slab.t"),
    ("slab.center = 0, 0, 0", "slab.center"),
    ("monotonicity.center = 0", "monotonicity.center"),
    ("firstvar.count = many", "firstvar.count"),
    ("firstvar.count = 0", "firstvar.count"),
    ("firstvar.count = -2", "firstvar.count"),
    # one slab walk per field: at most 2000 of them
    ("firstvar.count = 100000000000000000000", "firstvar.count"),
    ("firstvar.count = 2001", "firstvar.count"),
    ("firstvar.seed = -1", "firstvar.seed"),
    ("scenario.seed = abc", "scenario.seed"),
    ("scenario.seed = -5", "scenario.seed"),
    ("scenario.seed = -300", "scenario.seed"),
    ("scenario.radius = abc", "scenario.radius"),
    # a ball of no positive radius has no interface
    ("scenario.kind = circle\nscenario.radius = 0", "scenario.radius"),
    ("scenario.kind = circle\nscenario.radius = -0.5", "scenario.radius"),
    ("scenario.kind = solved-circle\nscenario.radius = 0", "scenario.radius"),
    ("scenario.kind = bubble\nscenario.radius = -0.5", "scenario.radius"),
    ("scenario.radus = 0.5", "scenario.radus"),
    ("grid.extent = a, 2", "grid.extent"),
    ("grid.points = 81.5, 81", "grid.points"),
    # one origin coordinate per axis of grid.extent
    ("grid.origin = -1, -1, 0", "grid.origin"),
    ("scenario.epsilon = x", "scenario.epsilon"),
    ("strict = maybe", "strict"),
    ("analysis.tau = 2", "analysis.tau"),
    ("grid.points = 4, 4", "grid.points"),
    ("analysis.q0 = 0.5", "analysis.q0"),
    ("gdelta.delta = 0.7", "gdelta.delta"),
    ("gdelta.delta = 0.1, 0.7", "gdelta.delta"),
    ("gdelta.c0 = 0.5", "gdelta.c0"),
    ("slab.t = 0.3, -0.3", "slab.t"),
    ("monotonicity.radii = 0.1, 0.3, 4", "monotonicity.radii"),
    ("slab.radii = 0.1, 0.3, 3", "slab.radii"),
    # above the cap of 10 000 radii; without the cap numpy would refuse
    # 1e12 of them at once, never allocate them
    ("monotonicity.radii = 0.1, 0.5, 1e12", "monotonicity.radii"),
    # quantize reads analysis.tau; quantize.tau is an unknown key
    ("quantize.tau = x", "quantize.tau"),
    ("quantize.tau = 1.5", "quantize.tau"),
    # each epsilon must be at least 4h: h = 0.025 here, 0.1 with 21 points
    ("scenario.epsilon = 0.05", "scenario.epsilon"),
    ("grid.points = 21, 21", "scenario.epsilon, grid.points"),
]

# Numbers that parse but are not finite, refused by the key they are set to.
NON_FINITE = [
    ("scenario.epsilon = inf", "scenario.epsilon"),
    ("grid.extent = inf, inf", "grid.extent"),
    ("grid.origin = nan, -1", "grid.origin"),
    ("analysis.q0 = inf", "analysis.q0"),
    ("scenario.radius = inf", "scenario.radius"),
]

# Geometry the analyses refuse, refused by load_config: the lines, the keys
# the refusal names and its text.
GEOMETRY = {
    "monotonicity-floor": ("monotonicity.radii = 0.01, 0.05, 5",
                           "monotonicity.radii",
                           "radius=0.01 under-resolves the grid: "
                           "need radii >= max(4h, eps)"),
    # B_0.9((0.5, 0)) reaches past the wall x = 1
    "monotonicity-margin": ("monotonicity.center = 0.5, 0\n"
                            "monotonicity.radii = 0.2, 0.9, 8",
                            "monotonicity.center, monotonicity.radii",
                            "2h domain margin on axis 0"),
    # the default slab planes lie h/2 inside the faces, so the slab clips
    # B_0.65((0, 0.5)) within 2h of the wall x_last = 1
    "slab-margin": ("slab.center = 0, 0.5\nslab.radii = 0.55, 0.65, 5",
                    "slab.center, slab.radii", "2h domain margin on axis 1"),
    # the default radii run from 0.2 in steps of 0.025
    "slab-pole": ("slab.t = 0.2, 0.9", "slab.t",
                  "slab plane t=0.2 within 2h of the pole of B_0.2"),
    "slab-off-grid": ("slab.t = -0.9, 1.5", "slab.t",
                      "plane t=1.5 outside the domain"),
    # a default: no radius range fits between the center and the wall
    "default-radii": ("monotonicity.center = 0.9, 0", "monotonicity.radii",
                      "domain too small for a radius range"),
}


@pytest.mark.parametrize("line, key, message", [
    *(pytest.param(line, key, key, id=f"{line}-{key}")
      for line, key in MALFORMED),
    *(pytest.param(line, key, "must be a finite number", id=f"{line}-{key}")
      for line, key in NON_FINITE),
    *(pytest.param(*case, id=name) for name, case in GEOMETRY.items())])
def test_malformed_values_are_config_errors(tmp_path, capsys, line, key,
                                            message):
    # the malformed lines replace the scenario's own lines for their keys
    replaced = {entry.split("=")[0] for entry in line.splitlines()}
    base = "".join(f"{kept}\n" for kept in SMALL_SCENARIO.splitlines()
                   if kept.split("=")[0] not in replaced)
    cfg = write_cfg(tmp_path, base + "analyses = norms\n"
                    f"{line}\nout = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    (" = 1\n", "line 1: empty key"),
    ("scenario = circle\nanalyses = ,\n",
     "analyses: at least one analysis must be selected"),
    ("analyses = norms\n",
     "config needs 'scenario = <name>' or 'scenario.kind'"),
    ("scenario.kind = circle\nscenario.epsilon = 0.1\n",
     "grid.extent, grid.points: required by an inline scenario"),
], ids=["empty-key", "no-analysis", "no-scenario", "no-grid"])
def test_incomplete_configs_are_config_errors(tmp_path, capsys, body,
                                              message):
    cfg = write_cfg(tmp_path, body + f"out = {tmp_path/'out'}\n")
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_anisotropic_grid_names_extent_and_points(tmp_path, capsys):
    # the spacings come from extent and points; origin plays no part
    cfg = write_cfg(tmp_path, "scenario.kind = circle\nscenario.epsilon = 0.1\n"
                    "grid.extent = 2, 3\ngrid.points = 81, 81\n"
                    f"grid.origin = -1, -1\nout = {tmp_path/'out'}\n")
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        assert ("config error: grid.extent, grid.points: grid is anisotropic"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_quantize_lines_off_the_domain_name_the_center(tmp_path, capsys):
    # the default lines start at the circle's center, 0.05 from the wall
    cfg = write_cfg(tmp_path, "scenario.kind = circle\nscenario.epsilon = 0.1\n"
                    "scenario.center = 0.95, 0\ngrid.extent = 2, 2\n"
                    "grid.points = 81, 81\ngrid.origin = -1, -1\n"
                    f"analyses = quantize\nout = {tmp_path/'out'}\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: scenario.center: empty parameter range" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["planar-1", "constant-zero"])
def test_zero_gradient_threshold_gives_finite_cells(tmp_path, scenario):
    # with threshold 0 the unit normal is read at nodes where grad u = 0
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"scenario = {scenario}\n"
                    f"analyses = {', '.join(ANALYSES)}\n"
                    f"analysis.grad_threshold = 0\nout = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    for name in ANALYSES:
        lines = (out / f"{name}.csv").read_text().splitlines()
        for line in lines[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a row label
                assert math.isfinite(value), f"{name}.csv: {line}"


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | value | default | taken by |", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    documented = [key for row in rows
                  for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(_KEYS)


@pytest.mark.parametrize("head", ["scenario = circle-sweep",
                                  "scenario.kind = stack"])
def test_readme_config_examples_validate(tmp_path, head):
    # the named-scenario and the inline example of the config format
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```\n")[1::2]
    body, = [b for b in blocks if b.startswith(head)]
    assert main(["validate", "--config", str(write_cfg(tmp_path, body))]) == 0


def test_every_profile_class_is_a_config_kind():
    # load_config calls a kind's class with the kind's keys, and to_config
    # writes a profile's own fields under its class's kind: every profile
    # type the library builds is the class of a kind, and nothing else is
    from aclab.scenarios import Profile
    assert set(cli._PROFILES.values()) == set(Profile)


def test_corpus_config_seed_keys(tmp_path):
    # the keys a benchmark config adds to a named scenario
    body = "scenario = circle\nanalyses = norms\nfirstvar.seed = 3\n"
    good = write_cfg(tmp_path, body + "scenario.seed = 3\n")
    assert main(["validate", "--config", str(good)]) == 0
    bad = write_cfg(tmp_path, body + "scenario.seed = abc\n", name="bad.cfg")
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(bad)]) == 2
    # scenario.seed takes effect, and with it firstvar.seed's default,
    # scenario.seed + 100
    cfg = load_config(write_cfg(tmp_path, "scenario = circle\n"
                                "scenario.seed = 3\nanalyses = firstvar\n",
                                name="seed.cfg"))
    assert cfg.scenario.seed == 3
    assert cfg.geometry["firstvar"]["seed"] == 103


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


# ---------------------------------------------------------------- child processes

# Prints the modules of sys.modules in or under the packages given after the
# config and the output directory, after load_config and after the run.
IMPORT_PROBE = """
import json, sys
from aclab import cli

cfg, out, *packages = sys.argv[1:]

def loaded():
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in packages))

cli.load_config(cfg)
at_load = loaded()
code = cli.main(["run", "--config", cfg, "--out", out])
print(json.dumps({"exit": code, "load": at_load, "run": loaded()}))
"""

SOLVED_BUBBLE = """
scenario.kind = bubble
scenario.center = 0, 0
scenario.radius = 0.5
scenario.epsilon = 0.1
grid.extent = 2, 2
grid.origin = -1, -1
"""


def run_child(args, **env):
    """Run python with args and aclab on its path; extra environment
    variables apply to the child only, and one given as None is unset."""
    src = Path(aclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    proc = subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, timeout=300,
                          env={k: v for k, v in env.items() if v is not None})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe_imports(tmp_path, body, packages=("scipy",)):
    cfg = write_cfg(tmp_path, body)
    return json.loads(run_child(["-c", IMPORT_PROBE, cfg, tmp_path / "out",
                                 *packages]))


def test_manufactured_runs_import_only_what_they_run(tmp_path):
    # the test fields draw default_rng's stream in pure Python, the layer
    # constants are closed forms, and a run starts no pool
    body = f"scenario = circle\nanalyses = {', '.join(ANALYSES)}\n"
    seen = probe_imports(tmp_path, body, (
        "scipy", "numpy.random", "numpy.polynomial", "hashlib",
        "concurrent.futures"))
    assert seen["exit"] == 0
    assert seen["load"] == [] and seen["run"] == []


SOLVED_3D = """
scenario.kind = solved-circle
scenario.center = 0, 0, 0
scenario.radius = 0.5
scenario.epsilon = 0.25
grid.extent = 2, 2, 2
grid.origin = -1, -1, -1
grid.points = 33, 33, 33
"""


@pytest.mark.parametrize("body", [
    SOLVED_BUBBLE + "grid.points = 81, 81\n",
    SOLVED_BUBBLE + "grid.points = 80, 80\ngrid.boundary = periodic\n",
    SOLVED_3D], ids=["zero-flux", "periodic", "3-d"])
def test_solved_runs_import_no_scipy(tmp_path, body):
    # the Newton matvec applies the stencil and the preconditioner numpy's
    # FFT: neither a sparse matrix nor scipy.fft
    seen = probe_imports(tmp_path, body + "analyses = norms\n")
    assert seen["exit"] == 0
    assert seen["load"] == [] and seen["run"] == []


@pytest.mark.parametrize("body", [
    SOLVED_BUBBLE + "grid.points = 81, 81\n",
    SOLVED_BUBBLE + "grid.points = 80, 80\ngrid.boundary = periodic\n",
    SOLVED_3D], ids=["zero-flux", "periodic", "3-d"])
def test_solved_runs_import_no_numpy_random(tmp_path, body):
    # the solved-circle guess draws its noise from a SplitMix64 hash
    seen = probe_imports(tmp_path, body + "analyses = norms\n",
                         ("numpy.random",))
    assert seen["exit"] == 0
    assert seen["load"] == [] and seen["run"] == []


# every variable that sets OpenBLAS's thread count, unset: the pytest
# process itself imported aclab, which sets OPENBLAS_NUM_THREADS
NO_BLAS_THREADS = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))

THREAD_PROBE = """
import json, os
import aclab
tasks = "/proc/self/task"
print(json.dumps({"openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(tasks))
                  if os.path.isdir(tasks) else None}))
"""


@pytest.mark.parametrize("env,want", [
    ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, None), ({"GOTO_NUM_THREADS": "2"}, None)])
def test_import_defaults_blas_to_one_thread(env, want):
    seen = json.loads(run_child(["-c", THREAD_PROBE],
                                **{**NO_BLAS_THREADS, **env}))
    assert seen["openblas"] == want
    if not env and seen["threads"] is not None:
        # numpy's import started no BLAS worker thread
        assert seen["threads"] == 1


def test_solved_csvs_do_not_depend_on_blas_threads(tmp_path):
    # 161^2 = 25921 nodes: above the size at which OpenBLAS threads a dot
    cfg = write_cfg(tmp_path, SOLVED_BUBBLE + "grid.points = 161, 161\n"
                    "analyses = norms, sweep\n")
    outs = []
    for threads in (None, "1", "2"):  # None: aclab's default
        out = tmp_path / f"out-{threads}"
        run_child(["-m", "aclab", "run", "--config", cfg, "--out", out],
                  **{**NO_BLAS_THREADS, "OPENBLAS_NUM_THREADS": threads})
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs == ["norms.csv", "sweep.csv"]
    for name in csvs:
        assert len({out.joinpath(name).read_bytes() for out in outs}) == 1


def non_finite_runner(cfg, state):
    values = {"finite": 1.5, "missing": math.nan, "overflow": -math.inf}
    return ("norms.csv", ("name", "value"),
            [(k, cli._fmt(v)) for k, v in values.items()],
            {"values": values, "flags": {"excluded_mass": "pass"}})


def test_non_finite_cells_are_flagged_and_named(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "norms", non_finite_runner)
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--strict"]) == 1
    # the cells are written as they are, and the summary is strict JSON
    csv = (tmp_path / "out" / "norms.csv").read_text(encoding="utf-8")
    assert csv == "name,value\nfinite,1.5\nmissing,nan\noverflow,-inf\n"

    def refuse(constant):
        raise AssertionError(f"bare {constant} in summary.json")

    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=refuse)
    assert summary["status"] == "warn"
    norms = summary["analyses"]["norms"]
    assert norms["flags"] == {"excluded_mass": "pass", "non_finite": "warn"}
    assert norms["non_finite_cells"] == ["row 2 (missing), column value",
                                         "row 3 (overflow), column value"]
    assert norms["values"] == {"finite": 1.5, "missing": "nan",
                               "overflow": "-inf"}
    assert "non-finite cells in norms.csv: row 2 (missing)" in \
        capsys.readouterr().err


def test_finite_runs_raise_no_non_finite_flag(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO + "analyses = norms, sweep\n"
                    f"out = {tmp_path/'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "ok"
    for frag in summary["analyses"].values():
        assert "non_finite" not in frag["flags"]
        assert "non_finite_cells" not in frag
