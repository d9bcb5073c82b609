"""Compare a parent commit and a change, one row per workload and metric.

    python benchmarks/e2e/compare.py PARENT_OUT CHANGE_OUT

Each directory holds the ``results.jsonl`` that ``run.py --out DIR``
appends one record to per workload and invocation.  Run at least ten
pairs with identical settings, alternating which side runs first; the
i-th untraced record of a workload on one side pairs with the i-th on
the other.  Bounds and directions come from ``BENCHMARK.json``.

Verdicts, per the repository's measuring rules:

* ``unresolved`` -- the parent's own quartile spread exceeds the bound,
  unless every change run beats every parent run;
* ``worse``      -- the change's median is worse by more than the bound;
* ``better``     -- at least ten pairs, the change wins at least 9 in 10
  (ties count for neither) and the medians differ by more than the
  parent's spread;
* ``same``       -- none of the above.

Exits 1 when any metric is ``worse`` or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(out_dir: Path) -> dict[str, list[dict]]:
    """Untraced full-size records per workload, in run order."""
    by_workload: dict[str, list[dict]] = {}
    with open(out_dir / "results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"] and not rec["tiny"]:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    """``(verdict, win fraction)`` for paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med, q3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    n = min(len(parent), len(change))
    win_frac = wins / n
    always = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / med > bound and not always:
        return "unresolved", win_frac
    if sign * (med - cmed) / med > bound:
        return "worse", win_frac
    if n >= 10 and win_frac >= 0.9 and sign * (cmed - med) > q3 - q1:
        return "better", win_frac
    return "same", win_frac


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="run.py --out directory of the parent")
    p.add_argument("change", type=Path, help="run.py --out directory of the change")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(args.parent), load(args.change)
    failing = False
    print(f"{'workload':20} {'metric':14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>7} {'wins':>5}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        ps, cs = parent.get(name, []), change.get(name, [])
        n = min(len(ps), len(cs))
        if n == 0:
            print(f"{name:20} no paired runs")
            continue
        ps, cs = ps[:n], cs[:n]
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in ps]
            cv = [r["metrics"][m["name"]]["value"] for r in cs]
            v, win_frac = verdict(pv, cv, m["better"], m["bound"])
            failing |= v == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{name:20} {m['name']:14} "
                  f"{pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{(cq[1] - pq[1]) / pq[1]:+7.1%} {win_frac:5.0%}  {v}")
        same = all(a["digest"] and a["digest"] == b["digest"] for a, b in zip(ps, cs))
        failing |= not same
        runs = f"{n} pairs" + ("" if n >= 10 else " (fewer than 10: no claim)")
        print(f"{name:20} digest {'equal' if same else 'DIFFERS'}; {runs}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
