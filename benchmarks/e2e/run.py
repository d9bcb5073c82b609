"""End-to-end benchmark: six real-command workloads, host-time metrics.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME|all]
        [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--tiny]

For each workload run.py runs one discarded ``--tiny`` warm-up, then
starts fresh ``child.py`` interpreters one at a time (a closed loop with
one client) until the next one would end after ``--seconds``.  It prints
each metric as median, quartiles and n, checks every run's outputs, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Every invocation's record is appended to
``<out>/results.jsonl``, which ``compare.py`` reads.

Host times are scaled by ``child.REF_S / ref_s``, the host's speed
measured in the same process around the call (see ``child.host_ref``).

``--trace 1`` cycles untraced, traced and ``REPRO_OBS=0`` runs at the
one seed: the traced run wraps each layer's public calls from outside
(``layers.py``), and the other two give the tracing overhead and the
cost of the observability hooks no public span sees.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from child import REF_S, WORKLOADS
from layers import LAYERS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")

#: seconds before a hung child and its workers are killed
CHILD_TIMEOUT_S = 120

#: end-to-end metrics (--trace 0): name -> unit
E2E_UNITS = {
    "wall_s": "s",
    "sim_ios_per_s": "requests/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (--trace 1): name -> unit
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "workloads.arrivals": "count",
    "core.plan_lookups": "count",
    "core.plan_cache_hit_ratio": "ratio",
    "disksim.array.requests": "count",
    "disksim.array.ops_per_request": "ratio",
    "disksim.events.requests_completed": "count",
    "disksim.events.self_us_per_request": "us",
    "raidsim.controller.init_s": "s",
    "raidsim.controller.controllers": "count",
    "raidsim.controller.retries": "count",
    "raidsim.sizing_s": "s",
    "nemesis.ticks": "count",
    "obs.off_delta_s": "s",
    "obs.trace_spans": "count",
    "parallel.tasks": "count",
    "parallel.worker_busy_frac": "ratio",
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def sample_seed(seed: int, i: int) -> int:
    """Seed of the i-th timed run of an untraced invocation.

    Runs 0 and 1 use ``seed`` itself: the repeat checks that a fresh
    process reproduces the result, and gives the invocation's digest.
    Later runs use ``seed * 1000 + i``, so the median covers many inputs
    and moves little from one ``seed`` to the next.
    """
    return seed if i < 2 else seed * 1000 + i


def child_env(out: Path, cache: Path, obs_off: bool) -> dict:
    """The child's environment: no ablation toggles, caches under ``out``."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("REPRO_OBS", "REPRO_BATCH")) and k != "REPRO_CALENDAR"
    }
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([inherited] if inherited else []))
    # an empty cache dir per run: every run pays the autotune calibration
    # inside setup_s, and nothing is written to ~/.cache
    env["XDG_CACHE_HOME"] = str(cache)
    env["TMPDIR"] = str(out / "tmp")
    if obs_off:
        env["REPRO_OBS"] = "0"
    return env


def spawn(name: str, seed: int, out: Path, kind: str, tiny: bool, n: int):
    """One child run; returns ``(record, None)`` or ``(None, error)``."""
    cache = out / "cache" / str(n)
    cmd = [
        sys.executable, str(CHILD), "--workload", name, "--seed", str(seed),
        "--out", str(out),
        # the traced sweep runs serially so every span lands in one process
        "--jobs", "1" if kind == "traced" else "2",
    ]
    if tiny:
        cmd.append("--tiny")
    if kind == "traced":
        cmd.append("--traced")
    t_spawn = monotonic()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(out, cache, obs_off=kind == "obs_off"),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        # the child's session holds its pool workers too
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        stdout, stderr = "", f"killed after {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0 or not stdout.strip():
        tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, f"{kind} run at seed {seed}: {tail[0]}"
    rec = json.loads(stdout.strip().splitlines()[-1])
    rec["kind"] = kind
    rec["setup_s"] = rec["t_ready"] - t_spawn
    rec["scale"] = REF_S / rec["ref_s"]
    return rec, None


def stats(values: list[float]) -> dict:
    """Median, quartiles and n, as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool, out: Path, tiny: bool) -> dict:
    """Run one workload for ``seconds``; returns the invocation's record."""
    kinds = ("plain", "traced", "obs_off") if trace else ("plain",)
    spawn(name, seed, out, "plain", True, 0)  # warm-up, discarded
    records, errors = [], []
    deadline = monotonic() + seconds
    longest = 0.0
    i = 0
    while True:
        t0 = monotonic()
        run_seed = seed if trace else sample_seed(seed, i)
        rec, err = spawn(name, run_seed, out, kinds[i % len(kinds)], tiny, i + 1)
        longest = max(longest, monotonic() - t0)
        i += 1
        if rec is None:
            errors.append(err)
        else:
            records.append(rec)
        if i >= max(2, len(kinds)) and monotonic() + longest > deadline:
            break

    # one seed, one outcome: every run at a seed must agree
    first: dict[int, dict] = {}
    failed = len(errors)
    problems = list(errors)
    for r in records:
        ref = first.setdefault(r["seed"], r)
        agrees = (r["digest"], r["requests"]) == (ref["digest"], ref["requests"])
        failed += bool(r["problems"]) or not agrees
        if not agrees:
            problems.append(
                f"seed {r['seed']}: {r['kind']} run gave digest {r['digest']} and "
                f"{r['requests']} requests, first run {ref['digest']} and {ref['requests']}"
            )
    problems += sorted({p for r in records for p in r["problems"]})
    own = [r["digest"] for r in records if r["seed"] == seed]

    by_kind = {k: [r for r in records if r["kind"] == k] for k in kinds}
    metrics, info = {}, {}
    if by_kind["plain"]:
        metrics, info = e2e_metrics(by_kind["plain"])
        if trace and by_kind["traced"]:
            metrics = layer_metrics(by_kind, metrics["wall_s"]["value"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "seconds": seconds,
        "attempted": i,
        "failed": failed,
        "correct": failed == 0 and not problems and bool(metrics),
        "digest": own[0] if own and len(set(own)) == 1 else None,
        "problems": problems,
        "metrics": metrics,
        "info": info,
        "env": {
            "python": platform.python_version(),
            "numpy": records[0]["numpy"] if records else None,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "ref_s": REF_S,
        },
        "runs": records,
    }


def e2e_metrics(plain: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled times for the record."""
    metrics = {
        "wall_s": stats([r["wall_s"] * r["scale"] for r in plain]),
        "sim_ios_per_s": stats([r["requests"] / (r["wall_s"] * r["scale"]) for r in plain]),
        "setup_s": stats([r["setup_s"] * r["scale"] for r in plain]),
        "peak_rss_mb": stats([r["peak_rss_mb"] for r in plain]),
    }
    for name, unit in E2E_UNITS.items():
        metrics[name]["unit"] = unit
    info = {
        "unscaled_wall_s": stats([r["wall_s"] for r in plain]),
        "unscaled_setup_s": stats([r["setup_s"] for r in plain]),
        "host_ref_s": stats([r["ref_s"] for r in plain]),
    }
    for m in info.values():
        m["unit"] = "s"
    return metrics, info


def layer_metrics(by_kind: dict, plain_wall: float) -> dict:
    """Per-layer numbers from the median traced run, plus the A/B deltas.

    Reporting one whole traced run (not per-metric medians) keeps its
    identity exact: the layers' self times plus ``bench.unattributed_s``
    are its traced wall.  Its times are scaled like ``wall_s``.
    """
    traced = sorted(by_kind["traced"], key=lambda r: r["wall_s"] * r["scale"])
    mid = traced[(len(traced) - 1) // 2]
    values = {
        k: v * mid["scale"] if LAYER_UNITS[k] in ("s", "us") else v
        for k, v in mid["layers"].items()
    }
    traced_wall = statistics.median(r["wall_s"] * r["scale"] for r in traced)
    values["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    off = by_kind["obs_off"]
    values["obs.off_delta_s"] = (
        plain_wall - statistics.median(r["wall_s"] * r["scale"] for r in off) if off else 0.0
    )
    values["obs.trace_spans"] = mid.get("trace_spans", 0)
    busy = [r["busy_s"] / (r["jobs"] * r["wall_s"]) for r in by_kind["plain"] if "busy_s" in r]
    values["parallel.worker_busy_frac"] = statistics.median(busy) if busy else 0.0
    return {
        name: {"value": values[name], "unit": unit, "n": len(traced)}
        for name, unit in LAYER_UNITS.items()
    }


def report(res: dict) -> None:
    """The human-readable block, then the one-line JSON result."""
    n_runs = res["attempted"]
    print(f"\n{res['workload']}  seed {res['seed']}  {n_runs} runs, "
          f"{res['failed']} failed  digest {res['digest']}")
    for p in res["problems"]:
        print(f"  problem: {p}")
    print(f"  {'metric':38} {'median':>14} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    rows = {**res["metrics"], "fail_frac": {
        "value": res["failed"] / n_runs, "n": n_runs, "unit": "ratio"}}
    if not res["trace"]:
        rows.update(res["info"])
    for name, m in rows.items():
        q = f"{m['q1']:12.6g} {m['q3']:12.6g}" if "q1" in m else f"{'':12} {'':12}"
        print(f"  {name:38} {m['value']:14.6g} {q} {m['n']:>3}  {m['unit']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": n_runs,
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in res["metrics"].items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, help="default: each workload's own seed")
    p.add_argument("--seconds", type=float, default=18.0,
                   help="measuring time per workload (default 18)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / "e2e-out")
    p.add_argument("--tiny", action="store_true", help="small sizes for the self-test")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    out = args.out.resolve()
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        seed = args.seed if args.seed is not None else WORKLOADS[name].seed
        res = measure(name, seed, args.seconds, bool(args.trace), out, args.tiny)
        with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(res) + "\n")
        report(res)
        ok &= res["correct"]
    for scratch in ("tmp", "cache"):
        shutil.rmtree(out / scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
