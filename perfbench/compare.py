#!/usr/bin/env python3
"""Compare two sets of benchmark runs: one row per workload and end-to-end
metric, with each side's median and quartiles, the fraction of pairs the
change won, and a verdict under the bound ``BENCHMARK.json`` fixes::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the run records ``run.py --out`` appends.  Runs pair up by
seed when both sides used the same seeds, otherwise in file order.

Verdicts:

* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: either side's spread (interquartile distance over median)
  is wider than the bound, unless every run of one side beats every run of
  the other;
* ``unchanged``: none of the above.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """``{workload: [record, ...]}`` of the untraced runs in ``path``."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs[rec["workload"]].append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(old: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["context"]["seed"]: r for r in new}
    matched = [(r, by_seed[r["context"]["seed"]]) for r in old if r["context"]["seed"] in by_seed]
    return matched or list(zip(old, new))


def relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(old: list[float], new: list[float], won: float, sign: int, bound: float) -> str:
    """``sign`` is +1 when higher is worse (times, bytes), -1 when lower is."""
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    spread = max(relative(oq3 - oq1, omed), relative(nq3 - nq1, nmed))
    worse_by = relative(sign * (nmed - omed), omed)
    dominates = (
        all(sign * (n - o) < 0 for n in new for o in old)
        or all(sign * (n - o) > 0 for n in new for o in old)
    )
    if spread > bound and not dominates:
        return "unresolved"
    if won >= 0.9 and worse_by < 0 and abs(nmed - omed) > oq3 - oq1:
        return "better"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def compare(old_runs: dict, new_runs: dict, metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(old_runs) & set(new_runs)):
        matched = pairs(old_runs[workload], new_runs[workload])
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)

            def value(rec):
                return rec["result"]["metrics"][name]["value"]

            old = [value(r) for r in old_runs[workload]]
            new = [value(r) for r in new_runs[workload]]
            wins = sum(sign * (value(n) - value(o)) < 0 for o, n in matched)
            won = wins / len(matched)
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "old": quartiles(old), "new": quartiles(new), "pairs": len(matched),
                "won": won, "verdict": verdict(old, new, won, sign, m["bound"]),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    rows = compare(load(argv[0]), load(argv[1]), metrics)
    print(f"{'workload':20s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for r in rows:
        cells = [f"{r[k][1]:.5g} [{r[k][0]:.5g}, {r[k][2]:.5g}]" for k in ("old", "new")]
        print(f"{r['workload']:20s} {r['metric']:16s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{r['won']:5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
