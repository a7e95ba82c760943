"""Experiment runner: parses flat key-value configs, executes the selected
analyses on a scenario, and writes CSV tables plus a JSON summary.

Exit codes: 0 success, 1 analysis failure (or tolerance warning under
--strict), 2 config error. CSV bodies are byte-identical across reruns of
the same config; timestamps live only in the summary metadata.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .fields import Grid, ZERO_FLUX, PERIODIC
from .measures import (AnalysisParams, corollary_holder_check,
                       diffuse_mean_curvature_norm, eta_lq_norm,
                       first_variation_identity, norm_report,
                       smooth_test_field)
from .monotonicity import monotonicity_report, slab_report
from .proofdevices import GDeltaParams, g_delta_ledger
from .quantization import quantization_check
from .scenarios import (ConstantProfile, LayerStackProfile, RadialProfile,
                        Scenario, ScenarioError, SolvedBubbleProfile,
                        SolvedFromForcingProfile, build, check_buildable,
                        default_center, default_lines, default_radii,
                        standard_corpus)

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


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _point(text: str) -> tuple[float, ...]:
    """One coordinate per grid axis; the count is checked against the grid."""
    return _floats(text)


def _values(text: str, count: int) -> tuple[float, ...]:
    vals = _floats(text)
    if len(vals) != count:
        raise ValueError(f"takes {count} values, got {len(vals)}")
    return vals


def _radii(text: str) -> tuple[float, float, int]:
    start, stop, count = _values(text, 3)
    if not (count.is_integer() and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count:g}")
    return start, stop, int(count)


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


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


def _solved_circle(center, radius, **noise) -> SolvedFromForcingProfile:
    return SolvedFromForcingProfile(RadialProfile(center, radius), **noise)


# scenario.kind -> profile constructor, called with the kind's key fields
_PROFILES = {"planar": LayerStackProfile, "stack": LayerStackProfile,
             "circle": RadialProfile, "bubble": SolvedBubbleProfile,
             "constant": ConstantProfile, "solved-circle": _solved_circle}


@dataclass
class RunConfig:
    scenario: Scenario
    analyses: tuple[str, ...]
    out_dir: Path
    strict: bool = False
    threads: int = 1
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
# analysis (its geometry, kept by key in RunConfig.geometry). The field is
# the key's last part unless given.
_KEYS = {
    "analyses": _Key(_analyses, "run", default=("norms",)),
    "out": _Key(Path, "run", default=Path("out")),
    "strict": _Key(_bool, "run", default=False),
    "scenario": _Key(_corpus_scenario, "corpus"),
    "scenario.kind": _Key(_one_of("kind", tuple(_PROFILES)), "inline"),
    "scenario.name": _Key(str, "inline"),
    "scenario.epsilon": _Key(_floats, "scenario", field="epsilons",
                             default=(0.05,)),
    "scenario.seed": _Key(int, "scenario"),
    "scenario.positions": _Key(_floats, *_STACK, default=(0.0,)),
    "scenario.axis": _Key(int, *_STACK),
    "scenario.first_sign": _Key(int, *_STACK),
    # default: one zero per grid axis
    "scenario.center": _Key(_point, *_BALL),
    "scenario.radius": _Key(float, *_BALL, default=0.5),
    "scenario.value": _Key(float, "constant", default=0.0),
    "scenario.noise": _Key(float, "solved-circle", field="noise_amplitude"),
    "grid.extent": _Key(_floats, "grid"),
    "grid.points": _Key(_ints, "grid"),
    "grid.boundary": _Key(_one_of("boundary", (ZERO_FLUX, PERIODIC)), "grid"),
    "grid.origin": _Key(_floats, "grid"),
    "analysis.q0": _Key(float, "params"),
    "analysis.grad_threshold": _Key(float, "params"),
    "analysis.supersample": _Key(int, "params"),
    "analysis.tau": _Key(float, "params"),
    "monotonicity.center": _Key(_point, "monotonicity"),
    "monotonicity.radii": _Key(_radii, "monotonicity"),
    "slab.center": _Key(_point, "slab"),
    "slab.radii": _Key(_radii, "slab"),
    "slab.t": _Key(lambda text: _values(text, 2), "slab"),
    "quantize.tau": _Key(float, "quantize"),
    "gdelta.delta": _Key(_floats, "gdelta"),
    "gdelta.c0": _Key(float, "gdelta"),
    "firstvar.count": _Key(int, "firstvar"),
    "firstvar.seed": _Key(int, "firstvar"),
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
def _naming_keys(values: dict, owner: str):
    """Put the config keys behind a ValueError of the block in front of its
    message: the keys of `owner` whose field the message names, else every
    key of `owner` the config sets."""
    try:
        yield
    except ValueError as exc:
        owned = [key for key in values if owner in _KEYS[key].owners]
        named = [key for key in owned
                 if re.search(rf"\b{_field(key)}\b", str(exc))]
        raise ValueError(f"{', '.join(named or owned)}: {exc}") from exc


def _scenario(values: dict) -> Scenario:
    """The corpus scenario the config names, or the inline one it describes;
    raises ValueError or ScenarioError."""
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
        # a corpus scenario keeps its own seed; scenario.seed only must parse
        eps = values.get("scenario.epsilon", corpus.epsilons)
        return replace(corpus, epsilons=eps, params=params)
    return Scenario(name=values.get("scenario.name", f"inline-{kind}"),
                    grid=grid, profile=_PROFILES[kind](**_fields(values, kind)),
                    params=params, **_fields(values, "scenario"))


def load_config(path: Path, out_override=None, strict_override=None,
                threads: int = 1) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
    try:
        scenario = _scenario(values)
        check_buildable(scenario)
    except (ValueError, ScenarioError) as exc:
        raise ConfigError(str(exc)) from exc

    run = _fields(values, "run")
    return RunConfig(
        scenario=scenario, analyses=run["analyses"],
        out_dir=Path(out_override) if out_override else run["out"],
        strict=run["strict"] if strict_override is None else strict_override,
        threads=max(1, int(threads)),
        geometry={key: value for key, value in values.items()
                  if _KEYS[key].owners[0] in ANALYSES})


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return value if isinstance(value, str) else _fmt(value)


def to_config(scenario: Scenario, out: str = "out") -> str:
    """Serialize a scenario to the flat key-value config format that
    load_config reads back; blocks on profile kinds the config grammar
    cannot express."""
    prof = scenario.profile
    if isinstance(prof, SolvedFromForcingProfile):
        if not isinstance(prof.base, RadialProfile):
            raise ScenarioError(
                "only radial bases serialize for solved-from-forcing scenarios")
        kind, fields = "solved-circle", {**vars(prof), **vars(prof.base)}
    else:
        kind = next((k for k, make in _PROFILES.items()
                     if make is type(prof)), None)
        if kind is None:
            raise ScenarioError(f"cannot serialize profile {type(prof).__name__}")
        fields = vars(prof)
    sources = {"run": {"out": out},
               "inline": {"kind": kind, "name": scenario.name},
               "scenario": vars(scenario), "grid": vars(scenario.grid),
               "params": vars(scenario.params), kind: fields}
    lines = []
    for key, spec in _KEYS.items():
        owner = next((o for o in spec.owners if o in sources), None)
        value = sources[owner].get(_field(key)) if owner else None
        if value is not None:
            lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines) + "\n"


def _geometry_radii(cfg: RunConfig, key: str, scenario, eps, center):
    if key in cfg.geometry:
        return np.linspace(*cfg.geometry[key])
    return default_radii(scenario, eps, center)


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def _flag(value, key, larger_is_bad=True):
    tol = TOLERANCES[key]
    ok = value <= tol if larger_is_bad else value >= tol
    return "pass" if ok else "warn"


def _run_norms(cfg: RunConfig, states):
    scenario = cfg.scenario
    rows = []
    values = {}
    flags = {}
    multi = len(states) > 1
    for eps, st in zip(scenario.epsilons, states):
        rep = norm_report(st, scenario.params)
        hold = corollary_holder_check(st, s=3.0, t=6.0, params=scenario.params)
        scalars = {
            "total_energy": rep.total_energy,
            "sup_u": rep.sup_u,
            "lambda_hat": rep.lambda_hat,
            "sup_eps_grad": rep.sup_eps_grad,
            "xi_plus_mass": rep.xi_plus_mass,
            "xi_abs_mass": rep.xi_abs_mass,
            "f_l2_over_eps": rep.f_l2_over_eps,
            "excluded_mass_fraction": rep.excluded_mass_fraction,
            "residual_norm": st.residual_norm,
            "holder_lhs": hold.lhs,
            "holder_rhs": hold.rhs,
            "holder_holds": 1.0 if hold.holds else 0.0,
        }
        for name, val in scalars.items():
            label = f"{name}@eps={eps:g}" if multi else name
            rows.append((label, _fmt(val)))
            values[label] = val
        flags[f"excluded_mass@eps={eps:g}" if multi else "excluded_mass"] = \
            _flag(rep.excluded_mass_fraction, "norms.excluded_mass_fraction")
        if not hold.holds:
            flags["holder"] = "warn"
    return ("norms.csv", ("name", "value"), rows,
            {"values": values, "flags": flags})


def _run_sweep(cfg: RunConfig, states):
    scenario = cfg.scenario
    rows = []
    values = {}
    xi_plus = []
    for eps, st in zip(scenario.epsilons, states):
        rep = norm_report(st, scenario.params)
        xi_plus.append(rep.xi_plus_mass)
        rows.append((_fmt(eps), _fmt(rep.xi_plus_mass),
                     _fmt(rep.xi_abs_mass / rep.total_energy
                          if rep.total_energy > 0 else 0.0),
                     _fmt(rep.lambda_hat), _fmt(rep.sup_eps_grad),
                     _fmt(rep.total_energy)))
        values[f"xi_plus_mass@eps={eps:g}"] = rep.xi_plus_mass
    decreasing = all(b < a for a, b in zip(xi_plus, xi_plus[1:]))
    flags = {"xi_plus_decreasing": "pass" if (decreasing or len(xi_plus) < 2)
             else "warn"}
    header = ("epsilon", "xi_plus_mass", "xi_abs_over_mu", "lambda_hat",
              "sup_eps_grad", "total_energy")
    return ("sweep.csv", header, rows, {"values": values, "flags": flags})


def _run_identity(cfg: RunConfig, states, kind: str):
    """The ball identity ("monotonicity") or its slab variant ("slab")."""
    scenario = cfg.scenario
    eps, st = scenario.epsilons[0], states[0]
    g = scenario.grid
    center = cfg.geometry.get(f"{kind}.center") or default_center(scenario)
    radii = _geometry_radii(cfg, f"{kind}.radii", scenario, eps, center)
    supersample = scenario.params.supersample
    columns = ("ratio", "lhs", "term_xi", "term_boundary", "term_forcing")
    if kind == "slab":
        # default: the widest slab clearing the default radii's sphere
        # poles by > 2h
        slab = cfg.geometry.get("slab.t") or (g.lo[-1] + 0.5 * g.h,
                                              g.hi[-1] - 0.5 * g.h)
        rep = slab_report(st, center, radii, *slab, supersample=supersample)
        columns += ("term_plane_lo", "term_plane_hi")
    else:
        rep = monotonicity_report(st, center, radii, supersample=supersample)
    columns += ("residual",)
    rows = [tuple(_fmt(v) for v in row) for row in
            zip(rep.radii, *(getattr(rep, name) for name in columns))]
    frag = {"values": {"aggregate_residual": rep.aggregate, "scale": rep.scale},
            "flags": {"aggregate": _flag(rep.aggregate, f"{kind}.aggregate")}}
    return (f"{kind}.csv", ("r",) + columns, rows, frag)


def _run_quantize(cfg: RunConfig, states):
    scenario = cfg.scenario
    eps, st = scenario.epsilons[0], states[0]
    tau = cfg.geometry.get("quantize.tau", scenario.params.tau)
    lines = default_lines(scenario, eps)
    rep = quantization_check(st, lines, tau=tau)
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


def _run_gdelta(cfg: RunConfig, states):
    deltas = cfg.geometry.get("gdelta.delta", (0.1, 0.01))
    c0 = cfg.geometry.get("gdelta.c0", 2.0)
    rows = []
    values = {}
    worst = np.inf
    for delta in deltas:
        led = g_delta_ledger(GDeltaParams(delta=delta, c0=c0))
        for name, margin in (("lower_bound", led.margin_lower),
                             ("derivative_bound", led.margin_derivative),
                             ("concavity", led.margin_concavity),
                             ("differential", led.margin_differential)):
            label = f"{name}[delta={delta:g}]"
            rows.append((label, _fmt(margin)))
            values[label] = margin
            worst = min(worst, margin)
        values[f"upper_constant[delta={delta:g}]"] = led.upper_constant
    flags = {"margins": "pass" if worst >= TOLERANCES["gdelta.margin"]
             else "warn"}
    return ("gdelta.csv", ("inequality", "min_margin"), rows,
            {"values": values, "flags": flags})


def _run_firstvar(cfg: RunConfig, states):
    scenario = cfg.scenario
    st = states[0]
    count = cfg.geometry.get("firstvar.count", 5)
    seed = cfg.geometry.get("firstvar.seed", scenario.seed + 100)
    params = scenario.params
    q0 = params.resolve_q0(st.grid.ndim)
    lam, _ = diffuse_mean_curvature_norm(st, params)
    conjugate = np.inf if q0 == 1.0 else q0 / (q0 - 1.0)
    rows = []
    worst = 0.0
    duality_ok = True
    for k in range(count):
        eta = smooth_test_field(st.grid, seed + k)
        res = first_variation_identity(st, eta, params)
        bound = lam ** (1.0 / q0) * eta_lq_norm(st, eta, conjugate)
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


# one distinct callable per key: perfbench's tracer names spans by key
_RUNNERS = {
    "norms": _run_norms,
    "sweep": _run_sweep,
    "monotonicity": partial(_run_identity, kind="monotonicity"),
    "slab": partial(_run_identity, kind="slab"),
    "quantize": _run_quantize,
    "gdelta": _run_gdelta,
    "firstvar": _run_firstvar,
}


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(cfg: RunConfig) -> int:
    """Execute the configured analyses; returns the process exit code."""
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    try:
        states = build(cfg.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def job(name):
        return _RUNNERS[name](cfg, states)

    results = {}
    failures = []
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(job, name) for name in cfg.analyses]
            for name, fut in zip(cfg.analyses, futures):
                try:
                    results[name] = fut.result()
                except Exception as exc:
                    failures.append(f"{name}: {exc}")
    else:
        for name in cfg.analyses:
            try:
                results[name] = job(name)
            except Exception as exc:
                failures.append(f"{name}: {exc}")

    summary = {"scenario": cfg.scenario.name,
               "epsilons": list(cfg.scenario.epsilons),
               "analyses": {}, "status": "ok",
               "meta": {"created": datetime.datetime.now(
                   datetime.timezone.utc).isoformat(),
                   "package_version": __version__}}
    warned = False
    for name in cfg.analyses:
        if name not in results:
            continue
        fname, header, rows, frag = results[name]
        _write_csv(out / fname, header, rows)
        summary["analyses"][name] = frag
        warned |= any(v == "warn" for v in frag.get("flags", {}).values())

    if failures:
        summary["status"] = "failed"
        summary["failures"] = failures
    elif warned:
        summary["status"] = "warn"
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for msg in failures:
        print(f"analysis failure: {msg}", file=sys.stderr)
    if failures:
        return 1
    if warned and cfg.strict:
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
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--strict", action="store_true", default=None)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True, type=Path)

    sub.add_parser("list-scenarios", help="print the named scenario corpus")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, sc in sorted(standard_corpus().items()):
            eps = ", ".join(f"{e:g}" for e in sc.epsilons)
            print(f"{name:14s} {type(sc.profile).__name__:26s} "
                  f"grid={sc.grid.points} eps=[{eps}]")
        return 0

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"ok: scenario={cfg.scenario.name} analyses={list(cfg.analyses)} "
              f"out={cfg.out_dir}")
        return 0

    try:
        cfg = load_config(args.config, out_override=args.out,
                          strict_override=args.strict, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
