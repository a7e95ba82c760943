"""The names the benchmark's trace mode binds (`perfbench/tracer.py`) must
exist in the package, so that a refactor which would break
`perfbench/run.py --trace 1` fails here first."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
