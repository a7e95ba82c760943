"""The names the benchmark's trace mode binds (`perfbench/tracer.py`) must
exist in the package, and the command line its child process runs
(`perfbench/child.py`) must keep working, so that a refactor which would
break `perfbench/run.py` fails here first."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import aclab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def tracer_targets():
    # exec, not import: loading the file writes nothing next to it
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         namespace)
    return namespace["TARGETS"]


def test_every_trace_target_resolves():
    missing = []
    for mod_name, attr, span, _ in tracer_targets():
        owner = importlib.import_module(f"aclab.{mod_name}")
        *cls, name = attr.split(".")
        if cls:
            # the tracer wraps the method found in the class body
            owner = getattr(owner, cls[0], None)
            found = owner is not None and callable(vars(owner).get(name))
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{span} (aclab.{mod_name}.{attr})")
    assert not missing


def test_each_analysis_has_its_own_runner():
    # the tracer names each runner's spans by its key
    from aclab.cli import ANALYSES, _RUNNERS
    assert set(_RUNNERS) == set(ANALYSES)
    assert len({id(fn) for fn in _RUNNERS.values()}) == len(_RUNNERS)


def test_the_benchmark_child_runs_a_config(tmp_path):
    # child.py calls load_config(config) with one argument and runs
    # `aclab run --config CONFIG --out OUT --threads 1`
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario.kind = planar\nscenario.epsilon = 0.1\n"
                   "grid.extent = 2, 2\ngrid.points = 81, 81\n"
                   "grid.origin = -1, -1\nanalyses = norms\n",
                   encoding="utf-8")
    report = tmp_path / "report.json"
    src = Path(aclab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", PERFBENCH / "child.py", src, cfg,
         tmp_path / "out", report], capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["exit"] == 0, result.get("error")
    assert (tmp_path / "out" / "norms.csv").exists()
