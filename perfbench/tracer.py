"""In-memory span tracer for aclab, installed from outside the package.

The aclab modules import names from each other with `from .x import y`, so
wrapping a function where it is defined is not enough: `install` rebinds
every module-level name (and every value of a module-level dict, such as
`cli._RUNNERS`) that refers to a traced object, in every loaded aclab
module. Methods are wrapped on their class.

A span is `[name, parent, start, end, size]`; `parent` is the index of the
enclosing span or -1, and `size` is a number taken from the call's
arguments (grid nodes, states built) or 0. Spans stay in memory until
`dump`. Calls are assumed to come from one thread (`aclab run --threads 1`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _nodes(args, kwargs):
    return int(args[0].values.size)


def _states(args, kwargs):
    return len(args[0].epsilons)


# (module, attribute, span name, size hook). An attribute "Class.method"
# wraps the method on the class.
TARGETS = (
    ("phasefield", "solve_stationary", "phasefield.solve_stationary", None),
    ("phasefield", "spsolve", "phasefield.spsolve", None),
    ("phasefield", "_laplacian_matrix", "phasefield.laplacian_matrix", None),
    ("phasefield", "make_state", "phasefield.make_state", None),
    ("phasefield", "manufactured_forcing", "phasefield.manufactured_forcing",
     None),
    ("phasefield", "build_layer_stack", "phasefield.build_layer_stack", None),
    ("phasefield", "build_radial_layer", "phasefield.build_radial_layer",
     None),
    ("phasefield", "constants", "phasefield.constants", None),
    ("scenarios", "build", "scenarios.build", _states),
    ("measures", "density_fields", "measures.density_fields", None),
    ("measures", "norm_report", "measures.norm_report", None),
    ("measures", "corollary_holder_check", "measures.holder_check", None),
    ("measures", "diffuse_mean_curvature_norm",
     "measures.mean_curvature_norm", None),
    ("measures", "first_variation_identity", "measures.first_variation",
     None),
    ("measures", "eta_lq_norm", "measures.eta_lq_norm", None),
    ("measures", "smooth_test_field", "measures.smooth_test_field", None),
    ("fields", "gradient", "fields.gradient", _nodes),
    ("fields", "laplacian", "fields.laplacian", _nodes),
    ("fields", "integrate", "fields.integrate", None),
    ("fields", "_BallQuadrature.__init__", "fields.ball_setup", None),
    ("fields", "_BallQuadrature.integral_many", "fields.ball_pass", None),
    ("fields", "disc_integral", "fields.disc_integral", None),
    ("fields", "restrict_to_plane", "fields.restrict_to_plane", None),
    ("fields", "line_sample", "fields.line_sample", None),
    ("monotonicity", "monotonicity_report", "monotonicity.report", None),
    ("monotonicity", "slab_report", "monotonicity.slab", None),
    ("quantization", "quantization_check", "quantization.check", None),
    ("proofdevices", "g_delta_ledger", "proofdevices.ledger", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run", "cli.run", None),
)

# Layers whose self time is reported; the cli layer reports cli.self_s.
LAYERS = ("phasefield", "scenarios", "measures", "fields", "monotonicity",
          "quantization", "proofdevices")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target in the loaded aclab modules. Raises if a target
        is missing or a reference to an unwrapped original survives."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "aclab" or name.startswith("aclab.")}
        swaps = {}
        for mod_name, attr, span_name, size in TARGETS:
            mod = modules[f"aclab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(span_name, vars(cls)[meth], size))
                continue
            original = getattr(mod, attr)
            swaps[id(original)] = (original,
                                   self.wrap(span_name, original, size))
        runners = modules["aclab.cli"]._RUNNERS
        for key, fn in runners.items():
            swaps[id(fn)] = (fn, self.wrap(f"cli.analysis.{key}", fn))
        originals = [orig for orig, _ in swaps.values()]

        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    setattr(mod, key, swaps[id(value)][1])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in swaps and swaps[id(v)][0] is v:
                            value[k] = swaps[id(v)][1]
        for mod in modules.values():
            for key, value in vars(mod).items():
                if any(value is orig for orig in originals):
                    raise RuntimeError(
                        f"{mod.__name__}.{key} still refers to an untraced "
                        "function")

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# Aggregation (parent side; needs no aclab import)
# ---------------------------------------------------------------------------

def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (inclusive
    minus the time covered by direct child spans) and summed size."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                 "size": 0})
    for i, (name, _, start, end, size) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["size"] += size
    return dict(table)


def _has_ancestor(spans, i, predicate) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if predicate(spans[parent][0]):
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(span_lists) -> dict[str, float]:
    """The benchmark's per-layer metrics, summed over the span lists of one
    pass (one list per `aclab run` child)."""
    table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                 "size": 0})
    residual_evals = 0
    manufacture_s = 0.0
    manufacture = {"phasefield.make_state", "phasefield.manufactured_forcing",
                   "phasefield.build_layer_stack",
                   "phasefield.build_radial_layer"}
    for spans in span_lists:
        for name, row in span_table(spans).items():
            for key in row:
                table[name][key] += row[key]
        for i, (name, _, start, end, _) in enumerate(spans):
            if name == "fields.laplacian" and _has_ancestor(
                    spans, i, lambda n: n == "phasefield.solve_stationary"):
                residual_evals += 1
            elif name in manufacture and not _has_ancestor(
                    spans, i, lambda n: n.startswith("phasefield.")):
                manufacture_s += end - start

    analyses = [n for n in table if n.startswith("cli.analysis.")]

    def calls(name):
        return table[name]["calls"]

    def incl(name):
        return table[name]["incl_s"]

    solve_s = incl("phasefield.solve_stationary")
    states = table["scenarios.build"]["size"]
    m = {
        "phasefield.solve_s": solve_s,
        "phasefield.linear_solves": calls("phasefield.spsolve"),
        "phasefield.linear_solve_s": incl("phasefield.spsolve"),
        "phasefield.linear_solve_share": (incl("phasefield.spsolve") / solve_s
                                          if solve_s > 0 else 0.0),
        "phasefield.residual_evals": residual_evals,
        "phasefield.manufacture_s": manufacture_s,
        "scenarios.build_s": incl("scenarios.build"),
        "scenarios.states": states,
        "measures.density_fields_calls": calls("measures.density_fields"),
        "measures.density_fields_s": incl("measures.density_fields"),
        "measures.density_fields_per_state": (
            calls("measures.density_fields") / states if states else 0.0),
        "measures.norm_report_s": incl("measures.norm_report"),
        "measures.holder_check_s": incl("measures.holder_check"),
        "measures.first_variation_s": incl("measures.first_variation"),
        "fields.gradient_calls": calls("fields.gradient"),
        "fields.gradient_s": incl("fields.gradient"),
        "fields.laplacian_calls": calls("fields.laplacian"),
        "fields.node_sweeps": (table["fields.gradient"]["size"]
                               + table["fields.laplacian"]["size"]),
        "fields.ball_passes": calls("fields.ball_pass"),
        "fields.ball_quadrature_s": (incl("fields.ball_pass")
                                     + incl("fields.ball_setup")),
        "fields.disc_integral_calls": calls("fields.disc_integral"),
        "fields.disc_integral_s": incl("fields.disc_integral"),
        "fields.line_sample_s": incl("fields.line_sample"),
        "monotonicity.report_s": incl("monotonicity.report"),
        "monotonicity.slab_s": incl("monotonicity.slab"),
        "quantization.check_s": incl("quantization.check"),
        "proofdevices.ledger_s": incl("proofdevices.ledger"),
        "cli.load_config_s": incl("cli.load_config"),
        "cli.self_s": table["cli.run"]["self_s"],
    }
    for name in analyses:
        m["cli.analysis_s." + name.rsplit(".", 1)[1]] = incl(name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                   if name.startswith(layer + "."))
    m["trace.spans"] = sum(len(s) for s in span_lists)
    return m
