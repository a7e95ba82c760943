"""Experiment runner: parses flat key-value configs, executes the selected
analyses on a scenario, and writes CSV tables plus a JSON summary.

Exit codes: 0 success, 1 analysis failure or failed build (or tolerance
warning under --strict), 2 config error or usage error (a bad flag, or an
output directory that cannot be made). CSV bodies are byte-identical across
reruns of the same config; timestamps live only in the summary metadata.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .fields import Grid, ZERO_FLUX, PERIODIC
from .measures import (AnalysisParams, SmoothTestField, bump_half_widths,
                       corollary_holder_check, diffuse_mean_curvature_norm,
                       first_variations, norm_report)
from .monotonicity import check_geometry, monotonicity_report, slab_report
from .proofdevices import GDeltaParams, g_delta_ledger
from .quantization import quantization_check
from .phasefield import LayerSpec
from .scenarios import (ConstantProfile, RadialProfile, Scenario,
                        ScenarioError, SolvedBubbleProfile,
                        SolvedFromForcingProfile, build, check_bubble_radius,
                        check_buildable, check_epsilon_labels,
                        default_center, default_lines,
                        default_radii, standard_corpus)

ANALYSES = ("norms", "monotonicity", "slab", "quantize", "gdelta",
            "firstvar", "sweep")

# Tolerances reported as pass/warn flags in the summary (--strict escalates
# warnings to failures).
TOLERANCES = {
    "monotonicity.aggregate": 0.05,
    "slab.aggregate": 0.05,
    "quantize.max_residual": 0.05,
    "firstvar.residual": 1e-3,
    "gdelta.margin": -1e-10,
    "norms.excluded_mass_fraction": 1e-6,
}


class ConfigError(ValueError):
    """The config file cannot be parsed or validated."""


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines with dotted section keys and '#' comments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _numbers(kind=float, count=None, low=None, high=None):
    """A parser of comma-separated numbers: finite floats, or integers with
    kind=int; each at least `low` and at most `high`, and `count` of them,
    when given. It returns a tuple, or with count=1 the one number."""
    def parse(text: str):
        vals = tuple(kind(v) for v in text.split(","))
        if count is not None and len(vals) != count:
            raise ValueError(f"takes {count} values, got {len(vals)}")
        for v in vals:
            if kind is float and not math.isfinite(v):
                raise ValueError(f"must be a finite number, got {v}")
            if low is not None and v < low:
                raise ValueError(f"must be >= {low}, got {v}")
            if high is not None and v > high:
                raise ValueError(f"must be <= {high}, got {v}")
        return vals[0] if count == 1 else vals
    return parse


# one coordinate per grid axis: `_scenario` checks the count of each key
# this parser reads against the grid
_point = _numbers()


def _radii(text: str) -> np.ndarray:
    start, stop, count = _numbers(count=3)(text)
    # one ball pass per radius: at most 400 times the default count of 25
    if not (count.is_integer() and 0 <= count <= 10_000):
        raise ValueError(f"count must be an integer in [0, 10000], got "
                         f"{count:g}")
    return np.linspace(start, stop, int(count))


def _radius(text: str) -> float:
    radius = _numbers(count=1)(text)
    if radius <= 0:  # a ball kind's interface is a sphere
        raise ValueError(f"must be > 0, got {radius}")
    return radius


def _epsilons(text: str) -> tuple[float, ...]:
    # Scenario refuses them too, but an inline scenario's refusals also
    # name grid.points: refused here, they name this key alone
    eps = _numbers()(text)
    check_epsilon_labels(eps)
    return eps


def _one_of(noun: str, known):
    def parse(text: str) -> str:
        if text not in known:
            raise ValueError(f"unknown {noun} {text!r}; "
                             f"known: {', '.join(known)}")
        return text
    return parse


def _analyses(text: str) -> tuple[str, ...]:
    names = tuple(_one_of("analysis", ANALYSES)(a.strip())
                  for a in text.split(",") if a.strip())
    if not names:
        raise ValueError("at least one analysis must be selected")
    return names


def _corpus_scenario(name: str) -> Scenario:
    corpus = standard_corpus()
    return corpus[_one_of("scenario", sorted(corpus))(name)]


# scenario.kind -> profile class, called with the kind's key fields
_PROFILES = {"planar": LayerSpec, "stack": LayerSpec,
             "circle": RadialProfile, "bubble": SolvedBubbleProfile,
             "constant": ConstantProfile,
             "solved-circle": SolvedFromForcingProfile}


@dataclass
class RunConfig:
    scenario: Scenario
    analyses: tuple[str, ...]
    out_dir: Path
    geometry: dict = field(default_factory=dict)


class _Key:
    """One config key: its parser, its owners, the constructor argument its
    value becomes, and its value when the config leaves it out (None: the
    constructor's default)."""

    def __init__(self, parse, *owners, field=None, default=None):
        self.parse, self.owners = parse, owners
        self.field, self.default = field, default


_STACK = ("planar", "stack")
_BALL = ("circle", "bubble", "solved-circle")

# Every key a config may set; any other key is a config error. The owners
# say which configs take a key and what receives its value: "run"
# (RunConfig), "corpus" (the named scenario), "inline" and "grid" (inline
# scenarios only), "scenario" (a Scenario field), "params"
# (AnalysisParams), scenario kinds (a field of those kinds' profile), or an
# analysis (an input of its runner, resolved by `_analysis_inputs`). The
# field is the key's last part unless given.
_KEYS = {
    "analyses": _Key(_analyses, "run", default=("norms",)),
    "out": _Key(Path, "run", default=Path("out")),
    "scenario": _Key(_corpus_scenario, "corpus"),
    "scenario.kind": _Key(_one_of("kind", tuple(_PROFILES)), "inline"),
    "scenario.name": _Key(str, "inline"),
    "scenario.epsilon": _Key(_epsilons, "scenario", field="epsilons",
                             default=(0.05,)),
    "scenario.seed": _Key(_numbers(int, 1, low=0), "scenario"),
    "scenario.positions": _Key(_numbers(), *_STACK, default=(0.0,)),
    "scenario.axis": _Key(int, *_STACK),
    "scenario.first_sign": _Key(int, *_STACK),
    # default: one zero per grid axis
    "scenario.center": _Key(_point, *_BALL),
    "scenario.radius": _Key(_radius, *_BALL, default=0.5),
    "scenario.value": _Key(_numbers(count=1), "constant", default=0.0),
    "scenario.noise": _Key(_numbers(count=1), "solved-circle",
                           field="noise_amplitude"),
    "grid.extent": _Key(_numbers(), "grid"),
    "grid.points": _Key(_numbers(int), "grid"),
    "grid.boundary": _Key(_one_of("boundary", (ZERO_FLUX, PERIODIC)), "grid"),
    "grid.origin": _Key(_numbers(), "grid"),
    "analysis.q0": _Key(_numbers(count=1), "params"),
    "analysis.grad_threshold": _Key(_numbers(count=1), "params"),
    # band work grows as supersample^d: at most 32, 512 times the default
    # 4's subcell work in 3-d
    "analysis.supersample": _Key(_numbers(int, 1, low=1, high=32), "params"),
    "analysis.tau": _Key(_numbers(count=1), "params"),
    "monotonicity.center": _Key(_point, "monotonicity"),
    "monotonicity.radii": _Key(_radii, "monotonicity"),
    "slab.center": _Key(_point, "slab"),
    "slab.radii": _Key(_radii, "slab"),
    "slab.t": _Key(_numbers(count=2), "slab"),
    "gdelta.delta": _Key(_numbers(), "gdelta", default=(0.1, 0.01)),
    "gdelta.c0": _Key(_numbers(count=1), "gdelta", default=2.0),
    # one slab walk per field: at most 400 times the default count of 5
    "firstvar.count": _Key(_numbers(int, 1, low=1, high=2000), "firstvar",
                           default=5),
    "firstvar.seed": _Key(_numbers(int, 1, low=0), "firstvar"),
}


def _field(key: str) -> str:
    return _KEYS[key].field or key.rpartition(".")[2]


def _fields(values: dict, owner: str) -> dict:
    """Constructor arguments from the keys `owner` owns: the parsed value,
    else the table's default."""
    out = {}
    for key, spec in _KEYS.items():
        value = values.get(key, spec.default)
        if owner in spec.owners and value is not None:
            out[_field(key)] = value
    return out


@contextmanager
def _naming_keys(values: dict, owner: str = None, default=(), defaulted=()):
    """Put the config keys behind a ValueError or ScenarioError of the block
    in front of its message: the keys of `owner` whose field the message
    names, else every key of `owner` the config sets or whose default the
    block used (`defaulted`), else `default`, the keys that override the
    defaults the block used."""
    try:
        yield
    except (ValueError, ScenarioError) as exc:
        named = [key for key, spec in _KEYS.items() if owner in spec.owners
                 and re.search(rf"\b{_field(key)}\b", str(exc))]
        owned = [key for key in (*defaulted, *values)
                 if owner in _KEYS[key].owners]
        raise ValueError(f"{', '.join(named or owned or default)}: {exc}") \
            from exc


def _scenario(values: dict) -> Scenario:
    """The corpus scenario the config names, or the inline one it describes;
    raises ValueError naming keys."""
    corpus = values.get("scenario")
    if corpus is not None:
        source, takes = f"scenario = {corpus.name}", {"corpus"}
    elif "scenario.kind" in values:
        kind = values["scenario.kind"]
        source, takes = f"scenario.kind = {kind}", {"inline", "grid", kind}
    else:
        raise ValueError("config needs 'scenario = <name>' or 'scenario.kind'")
    takes |= {"run", "scenario", "params", *ANALYSES}
    stray = [key for key in values if takes.isdisjoint(_KEYS[key].owners)]
    if stray:
        raise ValueError(f"{', '.join(stray)}: not a key of '{source}'")

    if corpus is not None:
        grid = corpus.grid
    else:
        missing = [k for k in ("grid.extent", "grid.points") if k not in values]
        if missing:
            raise ValueError(f"{', '.join(missing)}: required by an "
                             "inline scenario")
        with _naming_keys(values, "grid"):
            grid = Grid(**_fields(values, "grid"))
        values.setdefault("scenario.center", (0.0,) * grid.ndim)
    for key, value in values.items():
        if _KEYS[key].parse is _point and len(value) != grid.ndim:
            raise ValueError(f"{key}: takes {grid.ndim} values, "
                             f"got {len(value)}")

    with _naming_keys(values, "params"):
        params = AnalysisParams(**_fields(values, "params"))
        params.resolve_q0(grid.ndim)
    if corpus is not None:
        with _naming_keys(values, default=("scenario.epsilon",)):
            scenario = replace(
                corpus, params=params,
                epsilons=values.get("scenario.epsilon", corpus.epsilons),
                seed=values.get("scenario.seed", corpus.seed))
            check_buildable(scenario)
        return scenario
    profile = _PROFILES[kind](**_fields(values, kind))
    # each epsilon must be at least 4h, and grid.points sets h
    with _naming_keys(values, default=("scenario.epsilon", "grid.points")):
        scenario = Scenario(
            name=values.get("scenario.name", f"inline-{kind}"), grid=grid,
            profile=profile, params=params, **_fields(values, "scenario"))
    if kind == "bubble" and grid.ndim > 1:
        with _naming_keys(values,
                          default=("scenario.radius", "scenario.epsilon")):
            check_bubble_radius(scenario)
    # check_buildable refuses a stack that does not fit, a 1-d bubble and
    # a bubble whose sphere leaves every node on one side
    stack = kind in _STACK
    with _naming_keys(values, kind if stack else None, default=(
            "scenario.positions" if stack else
            "grid.extent" if grid.ndim == 1 else "scenario.radius",)):
        check_buildable(scenario)
    return scenario


def _analysis_inputs(values: dict, scenario: Scenario, analyses) -> dict:
    """The inputs of each analysis that is selected or whose keys the config
    sets, at the first epsilon: its keys' values, else their defaults,
    through the scalar checks the analysis runs. Raises ValueError naming
    keys."""
    g, eps = scenario.grid, scenario.epsilons[0]
    inputs = {}
    for name in ANALYSES:
        if name not in analyses and all(_KEYS[key].owners != (name,)
                                        for key in values):
            continue
        if name in ("monotonicity", "slab"):
            center = values.get(f"{name}.center")
            # a refusal the default center may cause names its key
            defaulted = () if center else (f"{name}.center",)
            center = center or default_center(scenario)
            radii = values.get(f"{name}.radii")
            if radii is None:
                with _naming_keys(values,
                                  default=(*defaulted, f"{name}.radii")):
                    radii = default_radii(scenario, eps, center)
            # default: the widest slab clearing the default radii's poles
            slab = None if name == "monotonicity" else values.get(
                "slab.t", (g.lo[-1] + 0.5 * g.h, g.hi[-1] - 0.5 * g.h))
            with _naming_keys(values, name, default=(f"{name}.radii",),
                              defaulted=defaulted):
                radii = check_geometry(g, eps, center, radii, slab)
            inputs[name] = {"center": center, "radii": radii, "slab": slab}
        elif name == "quantize":
            # the lines start at the interface center
            with _naming_keys(values, default=("scenario.center",)):
                inputs[name] = {"lines": default_lines(scenario, eps),
                                "tau": scenario.params.tau}
        elif name == "gdelta":
            gdelta = _fields(values, "gdelta")
            with _naming_keys(values, "gdelta"):
                inputs[name] = [GDeltaParams(delta=delta, c0=gdelta["c0"])
                                for delta in gdelta["delta"]]
        elif name == "firstvar":
            # the test fields' bump needs more than 10 cells per axis
            with _naming_keys(values, default=("grid.points",)):
                bump_half_widths(g)
            inputs[name] = {"seed": scenario.seed + 100,
                            **_fields(values, "firstvar")}
    return inputs


def load_config(path: Path, out_override=None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    kv = parse_config_text(text)
    unknown = sorted(set(kv) - set(_KEYS))
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: unknown config key")
    values = {}
    for key, raw in kv.items():
        try:
            values[key] = _KEYS[key].parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    run = _fields(values, "run")
    try:
        scenario = _scenario(values)
        geometry = _analysis_inputs(values, scenario, run["analyses"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        scenario=scenario, analyses=run["analyses"],
        out_dir=Path(out_override) if out_override else run["out"],
        geometry=geometry)


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return value if isinstance(value, str) else _fmt(value)


def to_config(scenario: Scenario, out: str = "out") -> str:
    """Serialize a scenario to the flat key-value config format that
    load_config reads back."""
    prof = scenario.profile
    kind = next(k for k, cls in _PROFILES.items() if cls is type(prof))
    sources = {"run": {"out": out},
               "inline": {"kind": kind, "name": scenario.name},
               "scenario": vars(scenario), "grid": vars(scenario.grid),
               "params": vars(scenario.params), kind: vars(prof)}
    lines = []
    for key, spec in _KEYS.items():
        owner = next((o for o in spec.owners if o in sources), None)
        value = sources[owner].get(_field(key)) if owner else None
        if value is not None:
            lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def _flag(value, key, larger_is_bad=True):
    tol = TOLERANCES[key]
    ok = value <= tol if larger_is_bad else value >= tol
    return "pass" if ok else "warn"


def _run_norms(cfg: RunConfig, state):
    scenario, eps = cfg.scenario, state.epsilon
    rep = norm_report(state, scenario.params)
    hold = corollary_holder_check(state, s=3.0, t=6.0, params=scenario.params)
    scalars = {**asdict(rep), "residual_norm": state.residual_norm,
               "holder_lhs": hold.lhs, "holder_rhs": hold.rhs,
               "holder_holds": 1.0 if hold.holds else 0.0}
    multi = len(scenario.epsilons) > 1
    values = {f"{name}@eps={eps:g}" if multi else name: val
              for name, val in scalars.items()}
    flags = {f"excluded_mass@eps={eps:g}" if multi else "excluded_mass":
             _flag(rep.excluded_mass_fraction, "norms.excluded_mass_fraction")}
    if not hold.holds:
        flags["holder"] = "warn"
    return ("norms.csv", ("name", "value"),
            [(label, _fmt(val)) for label, val in values.items()],
            {"values": values, "flags": flags})


def _run_sweep(cfg: RunConfig, state):
    eps = state.epsilon
    rep = norm_report(state, cfg.scenario.params)
    row = (_fmt(eps), _fmt(rep.xi_plus_mass),
           _fmt(rep.xi_abs_mass / rep.total_energy
                if rep.total_energy > 0 else 0.0),
           _fmt(rep.lambda_hat), _fmt(rep.sup_eps_grad),
           _fmt(rep.total_energy))
    header = ("epsilon", "xi_plus_mass", "xi_abs_over_mu", "lambda_hat",
              "sup_eps_grad", "total_energy")
    return ("sweep.csv", header, [row],
            {"values": {f"xi_plus_mass@eps={eps:g}": rep.xi_plus_mass},
             "flags": {}})


def _xi_plus_decreasing(epsilons, values) -> str:
    """pass when xi+ mass falls strictly as eps falls, read in order of
    decreasing eps whatever order the config lists them in."""
    xi_plus = [values[f"xi_plus_mass@eps={eps:g}"]
               for eps in sorted(epsilons, reverse=True)]
    decreasing = all(b < a for a, b in zip(xi_plus, xi_plus[1:]))
    return "pass" if decreasing else "warn"


def _run_identity(cfg: RunConfig, st, kind: str):
    """The ball identity ("monotonicity") or its slab variant ("slab")."""
    geo = cfg.geometry[kind]
    center, radii = geo["center"], geo["radii"]
    supersample = cfg.scenario.params.supersample
    columns = ("ratio", "lhs", "term_xi", "term_boundary", "term_forcing")
    if kind == "slab":
        rep = slab_report(st, center, radii, *geo["slab"],
                          supersample=supersample)
        columns += ("term_plane_lo", "term_plane_hi")
    else:
        rep = monotonicity_report(st, center, radii, supersample=supersample)
    columns += ("residual",)
    rows = [tuple(_fmt(v) for v in row) for row in
            zip(rep.radii, *(getattr(rep, name) for name in columns))]
    frag = {"values": {"aggregate_residual": rep.aggregate, "scale": rep.scale},
            "flags": {"aggregate": _flag(rep.aggregate, f"{kind}.aggregate")}}
    return (f"{kind}.csv", ("r",) + columns, rows, frag)


def _run_quantize(cfg: RunConfig, state):
    rep = quantization_check(state, **cfg.geometry["quantize"])
    rows = []
    for r in rep.rows:
        pot_min = min(r.potential_per_layer) if r.potential_per_layer else 0.0
        pot_max = max(r.potential_per_layer) if r.potential_per_layer else 0.0
        rows.append((str(r.line_id), str(r.layer_count), _fmt(r.theta_hat),
                     str(r.nearest_k), _fmt(r.quantization_residual),
                     _fmt(pot_min), _fmt(pot_max)))
    header = ("line_id", "K", "theta_hat", "nearest_k", "residual",
              "potential_per_layer_min", "potential_per_layer_max")
    frag = {"values": {"mean_residual": rep.mean_residual,
                       "max_residual": rep.max_residual,
                       "mean_theta_hat": rep.mean_theta_hat},
            "flags": {"max_residual": _flag(rep.max_residual,
                                            "quantize.max_residual")}}
    return ("quantize.csv", header, rows, frag)


def _run_gdelta(cfg: RunConfig, state):
    rows = []
    values = {}
    worst = np.inf
    for params in cfg.geometry["gdelta"]:
        led = g_delta_ledger(params)
        for name, margin in (("lower_bound", led.margin_lower),
                             ("derivative_bound", led.margin_derivative),
                             ("concavity", led.margin_concavity),
                             ("differential", led.margin_differential)):
            label = f"{name}[delta={params.delta:g}]"
            rows.append((label, _fmt(margin)))
            values[label] = margin
            worst = min(worst, margin)
        values[f"upper_constant[delta={params.delta:g}]"] = led.upper_constant
    flags = {"margins": _flag(worst, "gdelta.margin", larger_is_bad=False)}
    return ("gdelta.csv", ("inequality", "min_margin"), rows,
            {"values": values, "flags": flags})


def _run_firstvar(cfg: RunConfig, st):
    inputs = cfg.geometry["firstvar"]
    params = cfg.scenario.params
    q0 = params.resolve_q0(st.grid.ndim)
    lam, _ = diffuse_mean_curvature_norm(st, params)
    conjugate = np.inf if q0 == 1.0 else q0 / (q0 - 1.0)
    rows = []
    worst = 0.0
    duality_ok = True
    # generated a slab at a time as they are read, never held whole
    etas = [SmoothTestField(st.grid, inputs["seed"] + k)
            for k in range(inputs["count"])]
    for k, (res, norm) in enumerate(
            first_variations(st, etas, params, conjugate)):
        bound = lam ** (1.0 / q0) * norm
        ok = abs(res.lhs) <= bound * (1.0 + 1e-6)
        duality_ok &= ok
        worst = max(worst, res.residual)
        rows.append((str(k), _fmt(res.lhs), _fmt(res.rhs), _fmt(res.residual),
                     _fmt(bound), "1" if ok else "0"))
    header = ("field_id", "lhs", "rhs", "residual", "duality_bound",
              "duality_holds")
    frag = {"values": {"max_residual": worst},
            "flags": {"residual": _flag(worst, "firstvar.residual"),
                      "duality": "pass" if duality_ok else "warn"}}
    return ("firstvar.csv", header, rows, frag)


# A runner takes the config and one state and returns the table it makes
# of that state: (CSV name, header, rows, summary fragment). One distinct
# callable per key: perfbench's tracer names spans by key.
_RUNNERS = {
    "norms": _run_norms,
    "sweep": _run_sweep,
    "monotonicity": partial(_run_identity, kind="monotonicity"),
    "slab": partial(_run_identity, kind="slab"),
    "quantize": _run_quantize,
    "gdelta": _run_gdelta,
    "firstvar": _run_firstvar,
}

# the analyses that read every epsilon's state; the others read the first
_EVERY_EPSILON = ("norms", "sweep")


_NON_FINITE = {_fmt(x) for x in (math.nan, math.inf, -math.inf)}


def _non_finite_cells(header, rows) -> list[str]:
    """The CSV cells that _fmt wrote from a NaN or an infinity, by row
    (1-based, with its first cell) and column."""
    return [f"row {i} ({row[0]}), column {name}"
            for i, row in enumerate(rows, start=1)
            for name, cell in zip(header, row) if cell in _NON_FINITE]


def _strict_json(obj):
    """obj with each non-finite float written as the text of its CSV cell
    ("nan", "inf", "-inf"), so that the summary is strict JSON."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    return obj


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _join(tables):
    """One table from a runner's tables of each state, in epsilon order:
    their rows in turn, and their values and flags merged."""
    fname, header, rows, frag = tables[0]
    for _, _, more, part in tables[1:]:
        rows = rows + more
        frag = {key: {**frag[key], **part[key]} for key in ("values", "flags")}
    return fname, header, rows, frag


def _analyse(cfg: RunConfig):
    """Build the states one epsilon at a time, in scenario.epsilons order,
    run on each the analyses that read it, and drop it before the next is
    built, so that a run holds one state. Returns each analysis's tables,
    one per state read, and the failures by analysis; raises the
    ScenarioError of a failed build."""
    scenario = cfg.scenario
    tables = {name: [] for name in cfg.analyses}
    failures = {}
    for i, eps in enumerate(scenario.epsilons):
        state, = build(replace(scenario, epsilons=(eps,)))
        for name in tables:
            if name in failures or (i > 0 and name not in _EVERY_EPSILON):
                continue
            try:
                tables[name].append(_RUNNERS[name](cfg, state))
            except Exception as exc:
                # the message only: the traceback's frames hold the state
                failures[name] = f"{name}: {exc}"
        del state  # and its memo, before the next state is built
    return tables, failures


def run(cfg: RunConfig, strict: bool = False) -> int:
    """Execute the configured analyses; returns the process exit code, 1 on
    a tolerance warning when `strict`. Nothing is written until every state
    has been built."""
    out = cfg.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a usage error, like a config error
        print(f"error: cannot use output directory {out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        tables, failures = _analyse(cfg)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = {"scenario": cfg.scenario.name,
               "epsilons": list(cfg.scenario.epsilons),
               "analyses": {}, "status": "ok",
               "meta": {"created": datetime.datetime.now(
                   datetime.timezone.utc).isoformat(),
                   "package_version": __version__}}
    warned = False
    for name, parts in tables.items():
        if name in failures:
            continue
        fname, header, rows, frag = _join(parts)
        if name == "sweep":  # read across the epsilons once all are in
            frag["flags"]["xi_plus_decreasing"] = _xi_plus_decreasing(
                cfg.scenario.epsilons, frag["values"])
        _write_csv(out / fname, header, rows)
        cells = _non_finite_cells(header, rows)
        if cells:  # written as they are, but never silently
            frag["flags"]["non_finite"] = "warn"
            frag["non_finite_cells"] = cells
            print(f"warning: non-finite cells in {fname}: {'; '.join(cells)}",
                  file=sys.stderr)
        summary["analyses"][name] = frag
        warned |= any(v == "warn" for v in frag["flags"].values())

    failed = [failures[name] for name in tables if name in failures]
    if failed:
        summary["status"] = "failed"
        summary["failures"] = failed
    elif warned:
        summary["status"] = "warn"
    (out / "summary.json").write_text(
        json.dumps(_strict_json(summary), allow_nan=False, indent=2,
                   sort_keys=True) + "\n", encoding="utf-8")

    for msg in failed:
        print(f"analysis failure: {msg}", file=sys.stderr)
    if failed:
        return 1
    if warned and strict:
        print("tolerance warnings escalated by --strict", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aclab",
        description="Interface-energy measure laboratory experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute analyses from a config file")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", type=Path, default=None)
    # only the value 1: the benchmark's command line still passes it
    p_run.add_argument("--threads", type=int, choices=(1,), default=1,
                       help=argparse.SUPPRESS)
    p_run.add_argument("--strict", action="store_true")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True, type=Path)
    p_val.set_defaults(out=None)

    sub.add_parser("list-scenarios", help="print the named scenario corpus")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, sc in sorted(standard_corpus().items()):
            eps = ", ".join(f"{e:g}" for e in sc.epsilons)
            print(f"{name:14s} {type(sc.profile).__name__:26s} "
                  f"grid={sc.grid.points} eps=[{eps}]")
        return 0

    try:
        cfg = load_config(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: scenario={cfg.scenario.name} analyses={list(cfg.analyses)} "
              f"out={cfg.out_dir}")
        return 0
    return run(cfg, args.strict)
