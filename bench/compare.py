#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records that ``bench/run.py --out FILE`` appends, one
per run.  For every workload and metric the comparison prints the median and
quartiles of each side and a verdict:

- ``better``: the new side wins at least 9 in 10 of the runs paired in file
  order and its median is ahead by more than the old side's quartile
  spread; or, where the spread is wider than the bound, every new run reads
  better than every old run;
- ``worse``: the new median is behind the old one by more than the metric's
  bound from BENCHMARK.json (per-layer metrics have no bound: the mirror of
  the rule for ``better`` applies);
- ``unresolved``: neither, with the reason.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> tuple[dict, set]:
    runs: dict = {}
    commits = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            commits.add(rec["machine"]["git_commit"])
            per_metric = runs.setdefault(rec["workload"], {})
            for name, m in rec["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
    return runs, commits


def _quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def _fmt(vals: list[float]) -> str:
    q1, med, q3 = _quartiles(vals)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(old: list[float], new: list[float], higher_is_better: bool,
            bound: float | None) -> str:
    sign = 1.0 if higher_is_better else -1.0
    o1, om, o3 = _quartiles(old)
    n1, nm, n3 = _quartiles(new)
    gain = sign * (nm - om)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > o3 - o1:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > o3 - o1:
            return "worse"
        return "unresolved (no consistent change)"
    spread = max((o3 - o1) / abs(om) if om else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        if min(sign * n for n in new) > max(sign * o for o in old):
            return "better"
        return f"unresolved (spread {spread:.3f} > bound {bound})"
    if -gain > bound * abs(om):
        return "worse"
    return "unresolved (no gain shown; within bound)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: (m["better"] == "higher", m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}
    old, old_commits = _load(argv[0])
    new, new_commits = _load(argv[1])
    print(f"old: {argv[0]} (commit {', '.join(sorted(old_commits))})")
    print(f"new: {argv[1]} (commit {', '.join(sorted(new_commits))})")
    print(f"{'workload':14s} {'metric':44s} {'old median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s}  verdict")
    for workload in sorted(set(old) & set(new)):
        for name in spec:
            a = old[workload].get(name)
            b = new[workload].get(name)
            if not a or not b:
                continue
            higher, bound = spec[name]
            print(f"{workload:14s} {name:44s} {_fmt(a):>30s} {_fmt(b):>30s}  "
                  f"{verdict(a, b, higher, bound)} (n={len(a)}/{len(b)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
