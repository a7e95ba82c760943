"""Correctness oracle for benchmark runs.

The reference (`reference.json`) holds, per config at one recorded seed,
the exit code, the flags and the CSV text of every analysis, plus the
analyses that failed when it was recorded (known defects). An analysis of
a run fails if it raised, if its CSV is missing, if a CSV cell is not
finite, if a flag went from pass to warn, if (at the recorded seed) a cell
is outside tolerance of the reference, if a solved state's residual_norm
exceeds the solver tolerance, or if its CSV bytes differ between reruns of
the same config on the same program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import SOLVER_TOL

REFERENCE = Path(__file__).with_name("reference.json")

# Manufactured states are fully determined by their config, so they compare
# tightly; only summation order may differ. A solved state is one of many
# vectors within the solver tolerance of the root: a different linear solver
# reaching the same tolerance moves its cells by far less than SOLVED_RTOL,
# a wrong state by far more.
MANUFACTURED_RTOL = 1e-9
SOLVED_RTOL = 1e-6
# A cell is compared at no less than this share of the largest magnitude in
# its column, so cancellation residues near zero do not demand digits they
# cannot have.
SCALE_FLOOR = 1e-6


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def read_outputs(out_dir: Path, analyses) -> dict:
    """Summary and the raw CSV bytes of each analysis (None if missing)."""
    summary_path = out_dir / "summary.json"
    summary = (json.loads(summary_path.read_text(encoding="utf-8"))
               if summary_path.exists() else None)
    csv = {}
    for name in analyses:
        path = out_dir / f"{name}.csv"
        csv[name] = path.read_bytes() if path.exists() else None
    return {"summary": summary, "csv": csv}


def _raised(summary) -> dict[str, str]:
    out = {}
    for msg in (summary or {}).get("failures", []):
        name, _, detail = msg.partition(":")
        out[name.strip()] = detail.strip()
    return out


def record_entry(report: dict, outputs: dict, analyses) -> dict:
    summary = outputs["summary"] or {}
    return {
        "exit": report.get("exit"),
        "failed": sorted(_raised(summary)),
        "flags": {name: frag.get("flags", {})
                  for name, frag in summary.get("analyses", {}).items()},
        "csv": {name: data.decode("utf-8")
                for name, data in outputs["csv"].items() if data is not None},
    }


def _cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(ref_text: str, text: str, rtol: float) -> str | None:
    ref, got = _cells(ref_text), _cells(text)
    if ref[:1] != got[:1]:
        return f"header {got[:1]} != reference {ref[:1]}"
    if len(ref) != len(got):
        return f"{len(got) - 1} rows, reference has {len(ref) - 1}"
    width = max(len(row) for row in ref)
    colmax = [0.0] * width
    for row in ref[1:]:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None and math.isfinite(x):
                colmax[j] = max(colmax[j], abs(x))
    for i, (rrow, grow) in enumerate(zip(ref[1:], got[1:]), start=1):
        if len(rrow) != len(grow):
            return f"row {i} has {len(grow)} cells, reference {len(rrow)}"
        for j, (rc, gc) in enumerate(zip(rrow, grow)):
            rx, gx = _number(rc), _number(gc)
            if rx is None or gx is None:
                if rc != gc:
                    return f"row {i} col {j}: {gc!r} != reference {rc!r}"
                continue
            tol = rtol * max(abs(rx), SCALE_FLOOR * colmax[j])
            if not abs(gx - rx) <= tol:
                return (f"row {i} col {j}: {gc} differs from reference {rc} "
                        f"by more than {tol:.3g}")
    return None


def _residual_norms(text: str):
    for row in _cells(text)[1:]:
        if row[0].split("@")[0] == "residual_norm":
            yield float(row[1])


def check(ref: dict | None, report: dict | None, outputs: dict, analyses,
          solved: bool, full: bool) -> dict[str, list[str]]:
    """Failure reasons per analysis (an empty list means it passed).

    `full` compares cells against the reference; otherwise only exit codes,
    flags, finiteness and solved residuals are checked.
    """
    reasons = {name: [] for name in analyses}

    def fail_all(msg):
        for name in analyses:
            reasons[name].append(msg)
        return reasons

    if report is None:
        return fail_all("no report: the child crashed or hit the run's "
                        "time limit")
    if report.get("error"):
        return fail_all("aclab raised: "
                        + report["error"].strip().splitlines()[-1])
    summary = outputs["summary"]
    if summary is None:
        return fail_all(f"no summary.json (exit {report.get('exit')})")
    raised = _raised(summary)
    if report.get("exit") != (1 if raised else 0):
        return fail_all(f"exit {report.get('exit')} with "
                        f"{len(raised)} failed analyses")

    ref_flags = (ref or {}).get("flags", {})
    for name in analyses:
        if name in raised:
            reasons[name].append(f"raised: {raised[name]}")
            continue
        data = outputs["csv"][name]
        if data is None or name not in summary.get("analyses", {}):
            reasons[name].append("missing from the outputs")
            continue
        text = data.decode("utf-8")
        if any(x is not None and not math.isfinite(x)
               for row in _cells(text)[1:] for x in map(_number, row)):
            reasons[name].append("non-finite CSV cell")
        for flag, value in summary["analyses"][name].get("flags", {}).items():
            if value == "warn" and ref_flags.get(name, {}).get(flag) == "pass":
                reasons[name].append(f"flag {flag} went from pass to warn")
        if solved and name == "norms":
            worst = max(_residual_norms(text), default=math.inf)
            if not worst <= SOLVER_TOL:
                reasons[name].append(
                    f"residual_norm {worst:.3g} > solver_tol {SOLVER_TOL:g}")
        if full:
            ref_text = (ref or {}).get("csv", {}).get(name)
            if ref_text is not None:
                msg = _compare_csv(ref_text, text,
                                   SOLVED_RTOL if solved else MANUFACTURED_RTOL)
                if msg:
                    reasons[name].append(f"{name}.csv {msg}")
    return reasons


class DigestStore:
    """CSV digests of earlier runs, keyed by program source and config, so
    that reruns of one config on one program are checked byte for byte
    across benchmark runs as well as within one."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.entries = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.entries = {}

    def check(self, key: str, name: str, value: str) -> str | None:
        seen = self.entries.setdefault(key, {}).setdefault(name, value)
        if seen != value:
            return "CSV bytes differ from an earlier run of the same config"
        return None

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.entries, indent=0),
                             encoding="utf-8")
