"""The aclab benchmark: `aclab run` timed end to end, with a traced run for
per-layer metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-reference
    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Run from the root of a checkout; the program is imported from `src/`.

Load is a closed loop with one client: every config of the workload runs
as `aclab run --threads 1` in a fresh interpreter, one after another, so
each pays what a user pays (imports, cold caches). A pass runs every config
once; passes repeat while another one fits in --seconds (at least one).

--trace 0 reports the end-to-end metrics: run_s (median over passes of the
summed time inside `aclab.cli.main`), setup_s (median over children of the
time to import aclab and load the config; children that only set up are
added until there are MIN_SETUPS), peak_rss_mb (median over passes of the
largest child's peak RSS) and passed_frac (analyses that passed over
analyses attempted). --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics of the traced pass and its overhead.

Every analysis is checked by the oracle (see oracle.py). The last line of
stdout is a JSON object {correct, attempted, failed, metrics}; every run is
also appended, with the environment, to a JSON-lines results file that
compare.py reads.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import oracle
import stats
import tracer
from workloads import WORKLOADS, Config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

REFERENCE_SEED = 0
MIN_SETUPS = 7
# Every child is killed this many seconds after the run started, so that
# the run ends within 180 s.
RUN_LIMIT_S = 165.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Exact call counts of the program at the seed commit, checked by --selftest.
SEED_COUNTS = {
    ("corpus-manufactured", "circle"): {"measures.density_fields_calls": 34},
    ("solve", "bubble"): {"phasefield.linear_solves": 15},
    ("solve", "solved-circle"): {"phasefield.linear_solves": 4},
}

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "passed_frac": "frac"}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def launch(cfg: Config, seed: int, d: Path, deadline: float, *flags):
    """Run one config in a fresh interpreter (child.py) inside directory d.

    Returns (report or None, peak RSS in MB). The child is killed at
    `deadline` (a perf_counter value), or not started after it; its report
    is then None.
    """
    d.mkdir(parents=True)
    if time.perf_counter() >= deadline:
        return None, 0.0
    cfg_path = d / "run.cfg"
    cfg_path.write_text(cfg.text(seed), encoding="utf-8")
    args = [SRC, cfg_path, d / "out", d / "report.json", *flags]
    with open(d / "child.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *map(str, args)],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() >= deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            killed = True
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None if killed else read_json(d / "report.json")
    if report and not Path(report["aclab"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"aclab was imported from {report['aclab']}, "
                         f"not from {SRC}")
    return report, usage.ru_maxrss / 1024.0


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def run_pass(workload: str, seed: int, work: Path, deadline: float,
             traced: bool, reference: dict, store: oracle.DigestStore,
             source: str) -> dict:
    """One pass over the workload's configs, each checked by the oracle."""
    rec = {"run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setups": [],
           "output_bytes": 0, "spans": [], "outcomes": {}, "digests": {}}
    for cfg in WORKLOADS[workload]:
        d = work / cfg.name
        flags = ["--trace", d / "spans.json"] if traced else []
        report, rss = launch(cfg, seed, d, deadline, *flags)
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], rss)
        out = d / "out"
        outputs = oracle.read_outputs(out, cfg.analyses)
        reasons = oracle.check(
            reference["configs"].get(f"{workload}/{cfg.name}"), report,
            outputs, cfg.analyses, cfg.solved, seed == reference["seed"])
        if report is not None:
            rec["versions"] = report["versions"]
            rec["run_s"] += report["run_s"]
            rec["cpu_s"] += report["cpu_s"]
            rec["setups"].append(report["setup_s"])
            if traced:
                rec["spans"].append(read_json(d / "spans.json") or [])
        key = hashlib.sha256(
            f"{source}\n{workload}\n{cfg.text(seed)}".encode()).hexdigest()
        for name, data in outputs["csv"].items():
            if data is None:
                continue
            rec["output_bytes"] += len(data)
            h = hashlib.sha256(data).hexdigest()
            rec["digests"][f"{cfg.name}/{name}"] = h
            msg = store.check(key, name, h)
            if msg:
                reasons[name].append(msg)
        if (out / "summary.json").exists():
            rec["output_bytes"] += (out / "summary.json").stat().st_size
        rec["outcomes"][cfg.name] = reasons
    return rec


def check_rerun_bytes(passes):
    """Mark analyses whose CSV bytes differ from the first pass."""
    first = passes[0]["digests"]
    for rec in passes[1:]:
        for key, h in rec["digests"].items():
            if key in first and first[key] != h:
                cfg_name, name = key.split("/")
                rec["outcomes"][cfg_name][name].append(
                    "CSV bytes differ between reruns in this run")


def count_failures(passes, known: set):
    attempted = failed = 0
    unexpected = []
    for k, rec in enumerate(passes):
        for cfg_name, reasons in rec["outcomes"].items():
            for name, why in reasons.items():
                attempted += 1
                if why:
                    failed += 1
                    if f"{cfg_name}/{name}" not in known:
                        unexpected.append(f"pass {k}: {cfg_name}/{name}: "
                                          + "; ".join(why))
    return attempted, failed, unexpected


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _proc_field(path: str, prefix: str) -> str | None:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(source: str, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    mem = _proc_field("/proc/meminfo", "MemTotal:")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem else None,
        "cpu_model": (_proc_field("/proc/cpuinfo", "model name")
                      or platform.processor()),
        **versions,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source,
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def timed_report(passes, setups, attempted, failed):
    run_s = [rec["run_s"] for rec in passes]
    rss = [rec["peak_rss_mb"] for rec in passes]
    values = {"run_s": stats.median(run_s),
              "setup_s": stats.median(setups) if setups else 0.0,
              "peak_rss_mb": stats.median(rss),
              "passed_frac": (attempted - failed) / attempted}
    metrics = {name: {"value": v, "unit": UNITS[name]}
               for name, v in values.items()}
    lines = [f"  {name:12s} {values[name]:12.6g} {UNITS[name]:5s} "
             f"{stats.describe(samples, UNITS[name])}"
             for name, samples in (("run_s", run_s), ("setup_s", setups),
                                   ("peak_rss_mb", rss))]
    lines.append(f"  {'passed_frac':12s} {values['passed_frac']:12.6g} frac  "
                 f"({attempted - failed}/{attempted} analyses)")
    lines.append(f"  {'failed_frac':12s} {failed / attempted:12.6g} frac  "
                 f"({failed}/{attempted} analyses)")
    extra = {"passes": [{k: rec[k] for k in ("run_s", "cpu_s", "peak_rss_mb",
                                             "setups")} for rec in passes],
             "setups": setups}
    return metrics, lines, extra


def traced_report(untraced, traced):
    raw = tracer.layer_metrics(traced["spans"])
    raw["cli.output_bytes"] = traced["output_bytes"]
    raw["proc.cpu_s"] = traced["cpu_s"]
    raw["trace.overhead_frac"] = (traced["run_s"] / untraced["run_s"] - 1.0
                                  if untraced["run_s"] > 0 else 0.0)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {name: {"value": raw.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    notes = {
        "phasefield.linear_solve_share":
            f"base: phasefield.solve_s = {raw['phasefield.solve_s']:.4f} s",
        "measures.density_fields_per_state":
            f"base: {raw['scenarios.states']} states built; ideal 1",
        "fields.node_sweeps": "computed: calls x grid nodes",
    }
    lines = [f"  untraced run_s {untraced['run_s']:.4f} s, traced run_s "
             f"{traced['run_s']:.4f} s, overhead "
             f"{raw['trace.overhead_frac']:+.2%}"]
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{note}")
    table = {}
    for spans in traced["spans"]:
        for name, row in tracer.span_table(spans).items():
            total = table.setdefault(name, dict.fromkeys(row, 0))
            for key in row:
                total[key] += row[key]
    lines.append(f"  {'span':36s} {'calls':>7s} {'incl_s':>10s} "
                 f"{'self_s':>10s}")
    for name in sorted(table):
        row = table[name]
        lines.append(f"  {name:36s} {row['calls']:7d} {row['incl_s']:10.4f} "
                     f"{row['self_s']:10.4f}")
    return metrics, lines, {"span_table": table}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def benchmark(args) -> int:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reference = oracle.load_reference()
    source = source_digest()
    store = oracle.DigestStore(STATE / "digests.json")
    work = STATE / "work" / f"{os.getpid()}-{time.time_ns()}"
    passes, setups = [], []
    try:
        while True:
            traced = bool(args.trace) and len(passes) == 1
            passes.append(run_pass(args.workload, args.seed,
                                   work / f"pass{len(passes)}", deadline,
                                   traced, reference, store, source))
            if traced or time.perf_counter() >= deadline:
                break
            if args.trace:
                continue  # one untraced pass, then the traced one
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        if not args.trace:
            setups = [s for rec in passes for s in rec["setups"]]
            probe = WORKLOADS[args.workload][0]
            while len(setups) < MIN_SETUPS:
                report, _ = launch(probe, args.seed,
                                   work / f"setup{len(setups)}", deadline,
                                   "--setup-only")
                if report is None:
                    break
                setups.append(report["setup_s"])
    finally:
        store.save()
        shutil.rmtree(work, ignore_errors=True)

    check_rerun_bytes(passes)
    known = set(reference["known_failures"].get(args.workload, []))
    attempted, failed, unexpected = count_failures(passes, known)
    if args.trace:
        if len(passes) < 2:
            unexpected.append("the traced pass did not start before the "
                              "run's time limit")
            passes.append({"run_s": 0.0, "cpu_s": 0.0, "output_bytes": 0,
                           "spans": []})
        metrics, lines, extra = traced_report(*passes)
    else:
        metrics, lines, extra = timed_report(passes, setups, attempted, failed)

    oracle_mode = ("full reference comparison" if args.seed == reference["seed"]
                   else "exit codes, flags, finiteness, solver residuals, "
                        "rerun bytes")
    env = environment(source, next((rec["versions"] for rec in passes
                                    if "versions" in rec), {}))
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"passes {len(passes)}  trace {args.trace}", *lines,
             f"  oracle: {oracle_mode}; {failed}/{attempted} analyses "
             f"failed, {len(unexpected)} not known defects",
             *(f"  FAIL {msg}" for msg in unexpected[:20]),
             f"  env: {env['nproc']} cpus, {env['mem_total_mb']} MB, "
             f"{env['cpu_model']}, python {env.get('python')}, numpy "
             f"{env.get('numpy')}, scipy {env.get('scipy')}, "
             f"{env.get('blas')}, commit {env['git_commit'] or 'n/a'}"]
    print("\n".join(lines))

    correct = not unexpected
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "unexpected": unexpected,
              "metrics": metrics, **extra}
    results = Path(args.results) if args.results else STATE / "results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_reference() -> int:
    """Run every config once at REFERENCE_SEED and store what it produced."""
    entries, known = {}, {}
    work = STATE / "work" / f"reference-{os.getpid()}"
    try:
        for workload, cfgs in WORKLOADS.items():
            known[workload] = []
            for cfg in cfgs:
                d = work / workload / cfg.name
                report, _ = launch(cfg, REFERENCE_SEED, d,
                                   time.perf_counter() + RUN_LIMIT_S)
                outputs = oracle.read_outputs(d / "out", cfg.analyses)
                entry = oracle.record_entry(report or {}, outputs,
                                            cfg.analyses)
                entries[f"{workload}/{cfg.name}"] = entry
                known[workload] += [f"{cfg.name}/{a}" for a in entry["failed"]]
                print(f"{workload}/{cfg.name}: exit {entry['exit']}, "
                      f"failed {entry['failed']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(oracle.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "known_failures": known,
                   "configs": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {oracle.REFERENCE}")
    return 0


def selftest() -> int:
    """Trace each config of SEED_COUNTS twice at the reference seed: the
    counts must equal the seed commit's and repeat exactly."""
    ok = True
    work = STATE / "work" / f"selftest-{os.getpid()}"
    try:
        for (workload, cfg_name), expected in SEED_COUNTS.items():
            cfg = next(c for c in WORKLOADS[workload] if c.name == cfg_name)
            seen = []
            for k in range(2):
                d = work / f"{workload}-{cfg_name}-{k}"
                launch(cfg, REFERENCE_SEED, d, time.perf_counter() + RUN_LIMIT_S,
                       "--trace", d / "spans.json")
                spans = read_json(d / "spans.json")
                if spans is None:
                    print(f"FAIL {workload}/{cfg_name}: no spans; child log:\n"
                          + (d / "child.log").read_text(errors="replace"))
                    return 1
                seen.append({k: v for k, v in
                             tracer.layer_metrics([spans]).items()
                             if isinstance(v, int)})
            for name, want in expected.items():
                got = [c[name] for c in seen]
                good = got == [want, want]
                ok &= good
                print(f"{'ok' if good else 'FAIL'} {workload}/{cfg_name}: "
                      f"{name} = {got}, seed commit {want}")
            same = seen[0] == seen[1]
            ok &= same
            print(f"{'ok' if same else 'FAIL'} {workload}/{cfg_name}: "
                  f"all {len(seen[0])} counts repeat exactly")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None,
                        help="JSON-lines file the run is appended to "
                             "(default .perfbench/results.jsonl)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "aclab" / "cli.py").is_file():
        print(f"error: no aclab source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
