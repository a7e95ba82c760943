"""Compare two benchmark result files (JSON lines written by run.py).

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

For each workload and metric, prints both sides' median and quartiles over
their runs and, for end-to-end metrics, the verdict against the bound in
BENCHMARK.json:

- unresolved: a side's quartile spread exceeds the bound, and not every
  run of AFTER is better than every run of BEFORE;
- REGRESSION: AFTER's median is worse than BEFORE's by more than the bound;
- better: AFTER's median is better by more than BEFORE's own spread;
- within bound: anything else.

Per-layer metrics have no bound; their change is printed for reading.
Exits 1 when there is a regression or a run of AFTER was not correct.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): [record, ...]}"""
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def spread(q) -> float:
    q1, med, q3 = q
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(before, after, better, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0
    qb, qa = stats.quartiles(before), stats.quartiles(after)
    worse = sign * (qa[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
    widest = max(spread(qb), spread(qa))
    if widest > bound:
        if all(sign * (a - b) < 0 for a in after for b in before):
            return "better (every run)"
        return f"unresolved (spread {widest:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"REGRESSION ({worse:+.1%} worse, bound {bound:.0%})"
    if -worse > spread(qb):
        return f"better ({-worse:.1%})"
    return f"within bound ({worse:+.1%} worse, bound {bound:.0%})"


def fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    before, after = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(set(before) | set(after)):
        workload, trace = key
        b, a = before.get(key, []), after.get(key, [])
        print(f"{workload} (trace {trace}): {len(b)} runs before, "
              f"{len(a)} after")
        if not b or not a:
            print("  (missing on one side)")
            continue
        if not all(r["correct"] for r in a):
            print("  AFTER has runs that are not correct")
            status = 1
        for name in a[0]["metrics"]:
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            va = [r["metrics"][name]["value"] for r in a]
            if not vb:
                continue
            unit = a[0]["metrics"][name]["unit"]
            line = (f"  {name:34s} {fmt(stats.quartiles(vb)):>36s} -> "
                    f"{fmt(stats.quartiles(va)):>36s} {unit}")
            if name in end_to_end:
                m = end_to_end[name]
                v = verdict(vb, va, m["better"], m["bound"])
                status |= v.startswith("REGRESSION")
                line += f"  {v}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
