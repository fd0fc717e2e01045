#!/usr/bin/env python3
"""Compare two result sets of ``run.py`` (parent, then change).

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds run records as ``run.py`` appends them to
``.bench_out/results.jsonl``. Run the two commits alternately (parent,
change, parent, ...), at least ten pairs per workload with the same
``--seconds``; the i-th untraced run of a workload on one side is paired
with the i-th on the other.

For each workload and end-to-end metric it prints each side's median and
quartiles over runs, the fraction of pairs the change wins (ties count for
neither side) and a verdict:

- better: the change wins at least 9 in 10 pairs and its median beats the
  parent's by more than the parent's own quartile spread;
- unresolved: a side's quartile spread is wider than the metric's bound, and
  not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound fixed in BENCHMARK.json;
- unchanged: none of these.

Traced runs are checked for counts: within one side, runs of the same
workload and seed must report identical counts. Exit code 1 if any verdict
is worse, any run failed a check, or a count does not repeat.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import percentile_summary

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple:
    sign = 1 if better == "lower" else -1   # sign * (a - b) > 0: a is worse than b
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (bmed - cmed) > bq3 - bq1:
        word = "better"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif sign * (cmed - bmed) > bound * abs(bmed):
        word = "worse"
    else:
        word = "unchanged"
    return word, wins, len(pairs)


def count_mismatches(records: list[dict], units: dict) -> list[str]:
    seen: dict[tuple, dict] = {}
    bad = []
    for r in records:
        if not r["trace"]:
            continue
        counts = {k: m["value"] for k, m in r["result"]["metrics"].items()
                  if units.get(k) in ("count", "B")}
        key = (r["stamp"]["workload"], r["stamp"]["seed"])
        if key in seen and seen[key] != counts:
            diff = sorted(k for k in counts if counts[k] != seen[key].get(k))
            bad.append(f"{key[0]} seed {key[1]}: {', '.join(diff)}")
        seen.setdefault(key, counts)
    return bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sides = [load(p) for p in argv]
    status = 0
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for label, records in zip(("parent", "change"), sides):
        failed = [r["run_id"] for r in records if not r["result"]["correct"]]
        if failed:
            print(f"{label}: {len(failed)} runs failed checks: {failed[:5]}")
            status = 1
        for line in count_mismatches(records, units):
            print(f"{label}: counts do not repeat: {line}")
            status = 1

    by_workload = [defaultdict(list) for _ in sides]
    for side, records in zip(by_workload, sides):
        for r in records:
            if not r["trace"]:
                side[r["stamp"]["workload"]].append(r)
    for workload in sorted(set(by_workload[0]) | set(by_workload[1])):
        base, change = by_workload[0][workload], by_workload[1][workload]
        if not base or not change:
            print(f"{workload}: runs on one side only")
            continue
        print(f"{workload}: {len(base)} parent runs, {len(change)} change runs")
        for label, runs in (("parent", base), ("change", change)):
            passes = [s["pass"] for r in runs for s in r["samples"]]
            print(f"  {label} pass time pooled over runs: {percentile_summary(passes)} s")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base]
            c = [r["result"]["metrics"][name]["value"] for r in change]
            word, wins, n = verdict(b, c, metric["better"], metric["bound"])
            status = 1 if word == "worse" else status
            bq, cq = quartiles(b), quartiles(c)
            print(f"  {name:12} parent {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  "
                  f"wins {wins}/{n}  bound {metric['bound']}  {word}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
