"""One workload run in a fresh interpreter; prints one JSON record.

``run.py`` starts one of these per sample, so module memos, plan caches
and the autotune cache start cold, as they do for a CLI user.  By hand:

    PYTHONPATH=src python benchmarks/e2e/child.py --workload rebuild-fig9 \
        --seed 2012 --out e2e-out --tiny

Each workload calls the public function its CLI command calls.  Set-up
(imports, autotune calibration, building the config) ends at the
``t_ready`` stamp; ``wall_s`` times the call alone, and :func:`host_ref`
is timed just before and after it.  The checks and the digest run after
the clock stops.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter

from layers import LAYERS, LayerTracer, Patcher, RequestCounter


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    #: keyword sizes for the measured run and for ``--tiny``
    full: dict
    tiny: dict
    #: ``prepare(seed, ctx, **size) -> (call, check)``; ``check(result)``
    #: returns ``(problems, canonical result, extras)``
    prepare: object


# ----------------------------------------------------------------------
# the six workloads
# ----------------------------------------------------------------------
def _serve(seed, ctx, n_stripes):
    from repro.raidsim import serve
    from repro.workloads.openloop import TenantSpec

    config = serve.ServeConfig(
        family="mirror",
        n=8,
        n_stripes=n_stripes,
        tenants=(
            TenantSpec("video", 15.0, process="bursty", zipf_s=1.1),
            TenantSpec("batch", 10.0),
        ),
        deadline_s=0.2,
        seed=seed,
    )

    def check(cmp_):
        problems = []
        for side in (cmp_.traditional, cmp_.shifted):
            if not side.rebuild_verified:
                problems.append(f"{side.layout_name}: rebuild not verified")
            if side.slo.served != side.n_arrivals:
                problems.append(
                    f"{side.layout_name}: served {side.slo.served} of "
                    f"{side.n_arrivals} arrivals"
                )
        return problems, (cmp_.traditional, cmp_.shifted), {}

    return (lambda: serve.compare_serve(config)), check


def _leaderboard(seed, ctx, n_stripes):
    from repro import obs
    from repro.raidsim import leaderboard

    config = leaderboard.LeaderboardConfig(n=5, n_stripes=n_stripes, rate_per_s=10.0, seed=seed)
    path = ctx.scratch / "leaderboard-trace.jsonl"
    written = []

    def call():
        # what `repro leaderboard --trace-out x.jsonl` installs
        tracer = obs.Tracer(sink=obs.JsonlTraceSink(path))
        old = obs.set_default_tracer(tracer)
        try:
            return leaderboard.run_leaderboard(config, jobs=1)
        finally:
            tracer.close()
            obs.set_default_tracer(old)
            written.append(tracer.sink.events_written)

    def check(result):
        problems = [
            f"{e.layout}: rebuild neither verified nor aborted"
            for e in result.entries
            if not (e.rebuild_verified or e.rebuild_aborted)
        ]
        if sorted(result.ranking) != sorted(config.layout_names()):
            problems.append(f"ranking {result.ranking} is not the roster")
        loaded = len(obs.load_streaming_trace(path).events)
        if loaded != written[0]:
            problems.append(f"trace reloads {loaded} of {written[0]} spans")
        else:
            path.unlink()
        return problems, result.to_dict(), {"trace_spans": written[0]}

    return call, check


def _sweep(seed, ctx, n_seeds):
    from repro.core import registry
    from repro.parallel import WorkerPool
    from repro.raidsim import campaign

    family, n, n_stripes = "mirror-parity", 5, 24

    def call():
        # what `repro faultcampaign --seeds N --jobs J` does
        with WorkerPool(ctx.jobs) as pool:
            if pool.n_workers > 1:
                layouts = [
                    registry.build_layout(name, n)
                    for name in registry.comparison_pair(family)
                ]
                n_i = max(lay.n for lay in layouts)
                n_j = max(getattr(lay, "data_rows", lay.rows) for lay in layouts)
                pool.share_film(2012, 16, n_stripes, n_i, n_j)
            return campaign.compare_sweep(
                family, n, n_seeds=n_seeds, n_stripes=n_stripes, root_seed=seed, pool=pool
            )

    def check(sweep):
        problems = []
        if len(sweep) != n_seeds:
            problems.append(f"{len(sweep)} of {n_seeds} sweep points")
        canonical = [
            (p.seed_index, p.fault_seed, p.user_read_seed, p.comparison)
            for p in sweep.points
        ]
        busy = sum(p.wall_s for p in sweep.points)
        return problems, canonical, {"busy_s": busy, "jobs": ctx.jobs}

    return call, check


def _nemesis(seed, ctx, horizon_days):
    from repro import nemesis

    config = nemesis.NemesisConfig(horizon_s=horizon_days * 86_400.0, seed=seed)

    def check(report):
        # not checked: unexplained_total == 0.  About 2% of seeds at this
        # horizon (28 and 64 of 0..99) raise one latency excursion from
        # probe noise alone, with no fault active; it is recorded instead
        problems = [
            f"{run.layout_name}: {run.n_ticks} of {config.n_ticks} ticks"
            for run in (report.traditional, report.shifted)
            if run.n_ticks != config.n_ticks
        ]
        return problems, report.digest, {"unexplained": report.unexplained_total}

    return (lambda: nemesis.run_nemesis_campaign(config)), check


def _fig9(seed, ctx, stripes_a, stripes_b):
    # the paper's Fig. 9 enumerates every failure case: no seeded input
    from repro.experiments import fig9

    def check(results):
        problems = [f"{r.experiment_id}: not verified" for r in results if not r.data["verified"]]
        return problems, [r.data for r in results], {}

    return (lambda: (fig9.run_a(n_stripes=stripes_a), fig9.run_b(n_stripes=stripes_b))), check


def _fig10(seed, ctx, n_ops):
    # Fig. 10 draws its writes from the paper's fixed seed: no seeded input
    from repro.experiments import fig10

    def check(results):
        problems = [f"{r.experiment_id}: redundancy broken" for r in results if not r.data["intact"]]
        return problems, [r.data for r in results], {}

    return (lambda: (fig10.run_a(n_ops=n_ops), fig10.run_b(n_ops=n_ops))), check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve-openloop", 2012, {"n_stripes": 160}, {"n_stripes": 16}, _serve),
        Workload("leaderboard-traced", 7, {"n_stripes": 64}, {"n_stripes": 8}, _leaderboard),
        Workload("sweep-parallel", 2012, {"n_seeds": 24}, {"n_seeds": 4}, _sweep),
        Workload("nemesis-week", 2012, {"horizon_days": 7}, {"horizon_days": 1}, _nemesis),
        Workload(
            "rebuild-fig9", 2012,
            {"stripes_a": 24, "stripes_b": 3}, {"stripes_a": 4, "stripes_b": 1}, _fig9,
        ),
        Workload("writes-fig10", 2012, {"n_ops": 120}, {"n_ops": 20}, _fig10),
    )
}


# ----------------------------------------------------------------------
# host speed reference
# ----------------------------------------------------------------------
#: Median :func:`host_ref` seconds on the machine baseline.json was
#: measured on.  ``run.py`` reports host times as ``measured * REF_S /
#: ref_s``: seconds at that machine's usual speed.
REF_S = 0.0350

#: host_ref timings on each side of the call; their median is the run's
#: speed, so one burst of host contention does not decide it
REF_REPEATS = 3


class _Event:
    __slots__ = ("t", "seq", "disk")

    def __init__(self, t: float, seq: int, disk: int) -> None:
        self.t = t
        self.seq = seq
        self.disk = disk


def host_ref() -> float:
    """Seconds this process takes for a fixed mix of dict updates,
    small-object churn through a heap and a tuple sort.

    The mix is the kind of work the simulator does, with no ``repro``
    code in it, so a change to the program cannot move it.  A shared
    host slows every process for tens of seconds at a time; dividing a
    workload's time by this one, taken in the same process just before
    and after the call, cancels most of that.  Garbage collection is
    off while it runs, so the heap a workload leaves does not count.
    """
    gc.disable()
    t0 = perf_counter()
    try:
        counts: dict[int, int] = {}
        for k in range(60_000):
            counts[k & 1023] = counts.get(k & 1023, 0) + k
        heap = []
        for k in range(15_000):
            e = _Event((k * 7919) % 10007 * 1e-3, k, k % 8)
            heapq.heappush(heap, (e.t, e.seq, e))
        while heap:
            heapq.heappop(heap)
        rows = [((k * 2654435761) % 1000003, k % 13, str(k)) for k in range(25_000)]
        rows.sort()
        return perf_counter() - t0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# digest and layer metrics
# ----------------------------------------------------------------------
def canonical(obj):
    """JSON-ready form of a result; dataclass fields with compare=False
    (wall times, metrics snapshots, timeseries) are left out."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [canonical(v) for v in items]
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return canonical(obj.tolist())
    if isinstance(obj, float):
        return obj.hex()
    return obj


def digest_of(obj) -> str:
    blob = json.dumps(canonical(obj), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def layer_metrics(tr: LayerTracer, wall_s: float, requests: int) -> dict:
    """The traced run's per-layer numbers (names as in BENCHMARK.json)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tr.self_s[layer]
        out[f"{layer}.calls"] = tr.calls[layer]
    c = tr.counts.get
    lookups = c("plan_hits", 0) + c("plan_misses", 0)
    batch_requests = c("batch_requests", 0)
    out.update({
        "workloads.arrivals": c("arrivals", 0),
        "core.plan_lookups": lookups,
        "core.plan_cache_hit_ratio": c("plan_hits", 0) / lookups if lookups else 0.0,
        "disksim.array.requests": batch_requests,
        "disksim.array.ops_per_request": (
            c("batch_ops", 0) / batch_requests if batch_requests else 0.0
        ),
        "disksim.events.requests_completed": requests,
        "disksim.events.self_us_per_request": (
            tr.self_s["disksim.events"] / requests * 1e6 if requests else 0.0
        ),
        "raidsim.controller.init_s": tr.inclusive_s.get("RaidController.__init__", 0.0),
        "raidsim.controller.controllers": c("controllers", 0),
        "raidsim.controller.retries": sum(fs.retries for fs in tr.fault_stats.values()),
        "raidsim.sizing_s": tr.inclusive_s.get("clean_rebuild_makespan", 0.0),
        "nemesis.ticks": c("ticks", 0),
        "parallel.tasks": c("tasks", 0),
        "bench.traced_wall_s": wall_s,
        "bench.unattributed_s": wall_s - tr.attributed_s,
    })
    return out


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--jobs", type=int, default=2)
    args = p.parse_args(argv)

    # set-up a CLI user pays: imports and the autotune calibration
    import numpy

    import repro.cli  # noqa: F401
    from repro.disksim.autotune import batch_threshold

    batch_threshold()
    wl = WORKLOADS[args.workload]
    ctx = argparse.Namespace(scratch=args.out / "tmp", jobs=args.jobs)
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    call, check = wl.prepare(args.seed, ctx, **(wl.tiny if args.tiny else wl.full))

    patcher = Patcher()
    requests = RequestCounter()
    requests.install(patcher)
    tracer = None
    if args.traced:
        tracer = LayerTracer()
        tracer.install(patcher)
    t_ready = monotonic()
    refs = [host_ref() for _ in range(REF_REPEATS)]
    t0 = perf_counter()
    result = call()
    wall_s = perf_counter() - t0
    patcher.restore()

    problems, canon, extras = check(result)
    digest = digest_of(canon)
    del result, canon
    gc.collect()
    refs += [host_ref() for _ in range(REF_REPEATS)]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "t_ready": t_ready,
        "wall_s": wall_s,
        "ref_s": statistics.median(refs),
        "requests": requests.total,
        # ru_maxrss is KiB on Linux: this process plus its largest worker
        "peak_rss_mb": usage / 1024,
        "digest": digest,
        "problems": problems,
        "numpy": numpy.__version__,
        **extras,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, wall_s, requests.total)
        tracer.write_spans(
            args.out / f"spans-{wl.name}.jsonl",
            {"workload": wl.name, "seed": args.seed, "wall_s": wall_s,
             "self_s": tracer.self_s},
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
