#!/usr/bin/env python
"""Gate perfbench runs against a baseline: fail on regressions.

Compares the *last* run in each ``BENCH_simperf.json``-style trajectory
(or a bare run record) kernel by kernel::

    python tools/bench_compare.py benchmarks/BENCH_simperf_baseline.json \
        BENCH_simperf.json --tolerance 0.2

A kernel regresses when ``current > baseline * (1 + tolerance)``.  The
default tolerance of 0.2 flags >20% slowdowns; CI smoke runs use a
looser gate (the checked-in baseline was recorded on different
hardware, so only gross regressions are catchable there — see
docs/performance.md).  Exit status: 0 clean, 1 regression, 2 usage
error.  Kernels only present on one side are reported but never fail
the gate; runs at different scales refuse to compare.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


class UsageError(Exception):
    """Inputs that cannot be compared (exit status 2, not 1)."""


def load_last_run(path: Path) -> dict:
    """The most recent run record from a trajectory (or a bare record)."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON ({exc})") from None
    if isinstance(data, dict) and "runs" in data:
        runs = data["runs"]
        if not runs:
            raise UsageError(f"{path} has an empty 'runs' list")
        return runs[-1]
    if isinstance(data, dict) and "kernels" in data:
        return data
    raise UsageError(f"{path} is not a perfbench trajectory")


def compare(baseline: dict, current: dict, tolerance: float) -> int:
    """Print a kernel-by-kernel table; return the regression count."""
    if baseline.get("scale") != current.get("scale"):
        raise UsageError(
            f"scale mismatch — baseline is "
            f"{baseline.get('scale')!r}, current is {current.get('scale')!r}"
        )
    base_k = baseline["kernels"]
    curr_k = current["kernels"]
    regressions = 0
    print(f"{'kernel':<20} {'baseline':>10} {'current':>10} {'ratio':>7}  verdict")
    for name in sorted(set(base_k) | set(curr_k)):
        if name not in base_k:
            print(f"{name:<20} {'--':>10} {curr_k[name]:>10.3f} {'--':>7}  new (not gated)")
            continue
        if name not in curr_k:
            print(f"{name:<20} {base_k[name]:>10.3f} {'--':>10} {'--':>7}  missing (not gated)")
            continue
        b, c = base_k[name], curr_k[name]
        ratio = c / b if b > 0 else float("inf")
        if ratio > 1.0 + tolerance:
            verdict = f"REGRESSION (>{tolerance:.0%} over baseline)"
            regressions += 1
        elif ratio < 1.0 - tolerance:
            verdict = "improved"
        else:
            verdict = "ok"
        print(f"{name:<20} {b:>10.3f} {c:>10.3f} {ratio:>6.2f}x  {verdict}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional slowdown (default 0.2 = 20%%)")
    args = parser.parse_args(argv)
    for path in (args.baseline, args.current):
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2

    try:
        baseline = load_last_run(args.baseline)
        current = load_last_run(args.current)
        regressions = compare(baseline, current, args.tolerance)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{regressions} kernel(s) regressed", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
