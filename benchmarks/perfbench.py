#!/usr/bin/env python
"""Perf-regression harness: time the simulator's hot kernels.

Unlike the ``bench_*`` pytest-benchmark files (which regenerate paper
artifacts), this is a plain script that times the *engine itself* and
appends a run record to a trajectory file, so speedups and regressions
are visible across commits::

    PYTHONPATH=src python benchmarks/perfbench.py               # full scale
    PYTHONPATH=src python benchmarks/perfbench.py --tiny        # CI smoke
    PYTHONPATH=src python benchmarks/perfbench.py --out my.json --no-append

Kernels:

* ``rebuild_cached``      — 1024-stripe single-failure rebuild, plan cache on
* ``rebuild_nocache``     — same rebuild with ``plan_cache=False`` (ablation)
* ``controller_init``     — building a 160-stripe shifted mirror-parity
                            controller over a film seed no earlier
                            repeat used, so every repeat pays a cold film
* ``controller_init_warm`` — the same construction on a warm template:
                            one layout object and film seed for every
                            build, as Fig. 9 builds its failure cases
                            (informational: not in the CI baseline)
* ``cli_import``          — ``import repro.cli`` in a fresh interpreter,
                            timed inside it, median of 5: the start-up
                            every command pays before its first line
                            (informational: not in the CI baseline)
* ``read_stream``         — drawing a Poisson user-read stream of
                            about 20,000 reads (2,000 with ``--tiny``)
                            over 5 disks and 24 stripes, the probe
                            stream of every campaign and nemesis tick
                            (informational: not in the CI baseline)
* ``write_workload``      — one Fig. 10 point: 120 random large writes
                            (read-modify-write parity) on a fresh n = 5
                            shifted mirror-parity array, one op in flight
* ``engine_elevator``     — raw event-engine throughput, elevator scheduling
* ``batch_submission``    — vectorized ``submit_batch`` over bulk numpy ops
* ``user_read_submit``    — single-element priority-0 user reads, one
                            per arrival, through the controller's
                            retry path under a transient + LSE fault
                            plan (informational: not in the CI
                            baseline)
* ``plan_generation``     — reconstruction plans for every 2-failure set
* ``nemesis_schedule``    — drawing dense year-long nemesis fault schedules
* ``campaign_serial``     — 16-seed compare_sweep, ``jobs=1``
* ``campaign_parallel``   — the same sweep fanned over every core
* ``campaign_pooled``     — the same sweep on a persistent ``WorkerPool``
                            with a shared-memory film block
* ``obs_overhead``        — the engine kernel, every request with a
                            completion callback as in every real
                            workload, under five observability
                            configurations: a hook-free engine subclass
                            (``bare``), the real engine with the null
                            sink (``REPRO_OBS=0``, with a flight
                            recorder *installed but gated off* — the
                            gate proves it is ignored), fully
                            instrumented, instrumented with a live
                            ``TimelineRecorder`` folding per-request
                            latency windows (``engine_callback_timeseries``),
                            and instrumented with a streaming JSONL
                            trace sink writing to disk

Derived ratios land in the record too: ``plan_cache_speedup``
(nocache / cached), ``parallel_speedup`` (serial / parallel),
``pool_speedup`` (per-call pool / persistent pool) and
``obs_callback_null_overhead`` (null-sink slowdown over the hook-free
engine — the ≤2% contract ``--obs-overhead`` gates in CI).
Gate a run against a baseline with ``tools/bench_compare.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from heapq import heappop
from math import inf
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.core.layouts import shifted_mirror_parity  # noqa: E402
from repro.disksim.array import ElementArray  # noqa: E402
from repro.disksim.calendar import OP_COMPLETE  # noqa: E402
from repro.disksim.disk import DiskParameters  # noqa: E402
from repro.disksim.events import Simulation  # noqa: E402
from repro.disksim.request import IOKind  # noqa: E402
from repro.disksim.scheduler import ElevatorScheduler  # noqa: E402
from repro.raidsim.campaign import compare_sweep  # noqa: E402
from repro.raidsim.controller import RaidController  # noqa: E402
from repro.raidsim.writes import measure_write_throughput  # noqa: E402

DEFAULT_OUT = SRC.parent / "BENCH_simperf.json"


# ----------------------------------------------------------------------
# kernels — each returns elapsed seconds for one execution
# ----------------------------------------------------------------------

def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def kernel_rebuild(n_stripes: int, plan_cache: bool) -> float:
    """Single-threaded rebuild; controller construction excluded."""
    ctrl = RaidController(
        shifted_mirror_parity(5),
        n_stripes=n_stripes,
        payload_bytes=8,
        plan_cache=plan_cache,
    )
    return _time(lambda: ctrl.rebuild((0,), verify=False))


_fresh_film_seeds = itertools.count(1_000_003)


def kernel_controller_init(n_stripes: int) -> float:
    """Controller construction: film generation, encode and placement."""
    seed = next(_fresh_film_seeds)
    return _time(
        lambda: RaidController(
            shifted_mirror_parity(7),
            n_stripes=n_stripes,
            payload_bytes=64,
            film_seed=seed,
        )
    )


def kernel_controller_init_warm(n_stripes: int) -> float:
    """Controller construction from the layout's template.

    One untimed build fills the template; the timed one copies it.
    """
    layout = shifted_mirror_parity(7)

    def build():
        RaidController(layout, n_stripes=n_stripes, payload_bytes=64)

    build()
    return _time(build)


_TIMED_IMPORT = (
    "import time; t0 = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t0)"
)


def kernel_cli_import(runs: int = 5) -> float:
    """Median seconds of ``import repro.cli`` over fresh interpreters.

    Timed inside each interpreter, so the interpreter's own start-up is
    left out; numpy's import is in.  Whether Python may cache bytecode
    (``PYTHONDONTWRITEBYTECODE``) is inherited from this process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = [
        float(
            subprocess.run(
                [sys.executable, "-c", _TIMED_IMPORT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
        for _ in range(runs)
    ]
    return statistics.median(samples)


def kernel_read_stream(n_reads: int) -> float:
    """``user_read_stream`` drawing about ``n_reads`` reads, unpinned."""
    from repro.workloads.generator import user_read_stream

    return _time(lambda: user_read_stream(5, 24, n_reads / 1000.0, 1000.0, seed=7))


def kernel_write_workload(n_ops: int) -> float:
    """One Fig. 10 point: controller, workload and post-run verification."""
    return _time(
        lambda: measure_write_throughput(
            shifted_mirror_parity(5), n_ops=n_ops, strategy="rmw", window=1
        )
    )


def kernel_engine(n_requests: int) -> float:
    """Raw submit/run throughput through the elevator scheduler."""
    import numpy as np

    arr = ElementArray(
        8, 4 * 1024 * 1024, DiskParameters.savvio_10k3(), ElevatorScheduler
    )
    rng = np.random.default_rng(0)
    disks = rng.integers(0, 8, size=n_requests)
    offsets = rng.integers(0, 512, size=n_requests)

    def drive() -> None:
        for d, off in zip(disks, offsets):
            arr.submit(arr.element_request(int(d), int(off), IOKind.READ))
        arr.run()

    return _time(drive)


def kernel_batch(n_ops: int) -> float:
    """Bulk batch submission straight from numpy arrays."""
    import numpy as np

    arr = ElementArray(
        8, 4 * 1024 * 1024, DiskParameters.savvio_10k3(), ElevatorScheduler
    )
    rng = np.random.default_rng(0)
    disks = rng.integers(0, 8, size=n_ops)
    slots = rng.integers(0, 512, size=n_ops)

    def drive() -> None:
        arr.submit_batch(disks, slots, IOKind.READ)
        arr.run()

    return _time(drive)


def kernel_openloop_submit(n_arrivals: int) -> float:
    """Open-loop arrival scheduling: ``submit_many_at`` fan-in and run.

    Generation is outside the timed region; the kernel prices turning a
    pre-built arrival stream into timestamped OP_CALL submissions plus
    the run that serves them — the serve tier's hot path.
    """
    import numpy as np

    from repro.workloads.openloop import TenantSpec, open_arrivals

    duration_s = 10.0
    reads = open_arrivals(
        8,
        64,
        duration_s,
        (TenantSpec("bench", n_arrivals / duration_s, zipf_s=1.1),),
        seed=0,
    )
    arr = ElementArray(
        8, 4 * 1024 * 1024, DiskParameters.savvio_10k3(), ElevatorScheduler
    )
    batches = [
        (t, [arr.element_request(r.i, (r.stripe * 8 + r.j) % 512, IOKind.READ)
             for r in reads[k:k + 64]])
        for k, t in ((k, reads[k].time) for k in range(0, len(reads), 64))
    ]

    def drive() -> None:
        for t, reqs in batches:
            arr.sim.submit_many_at(max(t, arr.sim.now), list(reqs))
        arr.run()

    return _time(drive)


def kernel_user_read_submit(n_reads: int) -> float:
    """Single-element user reads through ``_submit_reads_with_retry``.

    Each read is one ``(disk, slot)`` at priority 0, submitted at its
    own arrival instant (about 30% of the array's bandwidth) by an
    ``OP_CALL`` event, under a fault plan with transient errors and
    latent sector errors — the per-request path of ``repro serve`` and
    ``repro nemesis`` without workload generation or SLO accounting.
    Controller construction is outside the timed region.
    """
    import numpy as np

    from repro.disksim.faultplan import FaultPlan
    from repro.disksim.scheduler import PriorityScheduler

    ctrl = RaidController(
        shifted_mirror_parity(5),
        n_stripes=64,
        payload_bytes=8,
        scheduler_factory=PriorityScheduler,
        fault_plan=FaultPlan(seed=7).with_transients(rate=0.02).with_lse_burst(8),
    )
    rng = np.random.default_rng(0)
    n_disks = len(ctrl.array.sim.disks)
    disks = rng.integers(0, n_disks, n_reads).tolist()
    slots = rng.integers(0, ctrl.stack.n_stripes * ctrl.stack.rows, n_reads).tolist()
    gaps = rng.exponential(1.0 / (10.0 * n_disks), n_reads).tolist()
    settled: list = []

    def drive() -> None:
        schedule_call = ctrl.array.sim.schedule_call
        submit = ctrl._submit_reads_with_retry
        t = 0.0
        for d, s, gap in zip(disks, slots, gaps):
            t += gap
            schedule_call(t, submit, [(d, s)], "user", settled.append, 0)
        ctrl.array.run()

    return _time(drive)


def kernel_plans() -> float:
    layout = shifted_mirror_parity(7)

    def plans() -> None:
        for failed in layout.all_failure_sets(2):
            layout.reconstruction_plan(failed)

    return _time(plans)


def kernel_nemesis_schedule(days: float) -> float:
    """Drawing (and wire-forming) dense multi-week nemesis schedules."""
    from repro.nemesis import HazardRates, build_schedule

    rates = HazardRates(
        disk_death_per_day=2.0,
        fail_slow_per_day=6.0,
        transient_burst_per_day=12.0,
        lse_storm_per_day=6.0,
    )

    def draw() -> None:
        for seed in range(4):
            build_schedule(
                12, days * 86_400.0, seed=seed, rates=rates
            ).to_dict()

    return _time(draw)


def kernel_campaign(n_seeds: int, n_stripes: int, jobs: int | None) -> float:
    return _time(
        lambda: compare_sweep(
            "mirror", 4, n_seeds=n_seeds, n_stripes=n_stripes, jobs=jobs
        )
    )


def kernel_campaign_pooled(n_seeds: int, n_stripes: int) -> float:
    """The sweep on a persistent pool with a shared-memory film block.

    Pool spin-up and film materialisation are inside the timing — the
    point is that they are paid once per pool, not once per sweep.
    """
    from repro.parallel import WorkerPool

    def drive() -> None:
        with WorkerPool(jobs=0) as pool:
            if pool.n_workers > 1:
                pool.share_film(2012, 16, n_stripes, 4, 4)  # mirror(4) geometry
            compare_sweep(
                "mirror", 4, n_seeds=n_seeds, n_stripes=n_stripes, pool=pool
            )

    return _time(drive)


class _BareSimulation(Simulation):
    """The engine with its observability hooks surgically removed.

    The completion step lives inline in ``Simulation._run_events``;
    this subclass's copy of that loop drops the one observed block —
    the queue-depth gauge and span behind ``if obs is not None`` — and
    nothing else, so timing it against the real engine under
    ``REPRO_OBS=0`` prices exactly the null-sink residue (one
    ``is not None`` check per completion).  Everything cumulative is
    folded once per ``run()`` behind a null check in ``run``'s
    ``finally``, so ``run`` itself is inherited unchanged.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._obs = None

    def _run_events(self, until):
        heap = self._heap
        take_call = self._cal.take_call
        limit = inf if until is None else until
        disks = self.disks
        faults = self.faults
        pop_callback = self._callbacks.pop
        log = self.completed.append
        start_next = self._start_next
        while heap:
            if heap[0][0] > limit:
                self.now = until
                return until
            t, seq, opcode, arg0 = heappop(heap)
            self.now = t
            if opcode == OP_COMPLETE:
                server = disks[arg0]
                request = server.current
                server.busy = False
                server.current = None
                self._pending -= 1
                if faults is not None:
                    faults.on_completion(request)
                log(request)
                cb = pop_callback(request.req_id, None)
                if cb is not None:
                    cb(request)
                start_next(server)
            else:
                action, args = take_call(seq)
                action(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now


def kernel_obs_overhead(n_requests: int, repeats: int) -> dict:
    """Engine kernel under bare / null-sink / instrumented / streaming.

    Returns best-of-``repeats`` seconds per config plus the slowdown
    ratios.  The null-sink ratio is the observability contract:
    components constructed under ``REPRO_OBS=0`` must cost within 2%
    of an engine that never heard of metrics — and that must keep
    holding with the streaming machinery merged in but idle (no sink
    attached is the null path; there is nothing extra to disable).
    The ``streaming`` config prices the opposite end: fully
    instrumented with a JSONL sink writing the span buffer to disk —
    informational, not gated.

    Every request carries a no-op completion callback, as in every
    real workload.
    """
    import gc
    import tempfile

    import numpy as np

    from repro.obs import (
        JsonlTraceSink,
        TimelineRecorder,
        Tracer,
        set_default_recorder,
        set_default_tracer,
        set_obs_enabled,
    )

    element = 4 * 1024 * 1024
    rng = np.random.default_rng(0)
    disks = [int(d) for d in rng.integers(0, 8, size=n_requests)]
    offsets = [int(o) * element for o in rng.integers(0, 512, size=n_requests)]

    def callback(request) -> None:
        pass

    def drive(sim_cls, enabled: bool, tracer=None, recorder=None) -> float:
        from repro.disksim.request import IORequest

        old = set_obs_enabled(enabled)
        old_tracer = set_default_tracer(tracer)
        old_recorder = set_default_recorder(recorder)
        try:
            sim = sim_cls(8, DiskParameters.savvio_10k3(), ElevatorScheduler)
        finally:
            set_default_recorder(old_recorder)
            set_default_tracer(old_tracer)
            set_obs_enabled(old)

        def go() -> None:
            for d, off in zip(disks, offsets):
                sim.submit(
                    IORequest(disk=d, offset=off, size=element, kind=IOKind.READ),
                    callback,
                )
            sim.run()
            # the final flush writes the sub-watermark tail: part of
            # what a streamed run costs
            if tracer is not None:
                tracer.close()

        # start every config from a collected heap, so none pays for
        # the garbage the previous one left behind
        gc.collect()
        return _time(go)

    def drive_streaming() -> float:
        with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as tmp:
            path = Path(tmp.name)
        try:
            return drive(
                Simulation, enabled=True, tracer=Tracer(sink=JsonlTraceSink(path))
            )
        finally:
            path.unlink(missing_ok=True)

    # The null config keeps a flight recorder *installed* — the gate
    # must hold with one present, because REPRO_OBS=0 is contracted to
    # skip it at construction.
    configs = {
        "bare": lambda: drive(_BareSimulation, False),
        "null": lambda: drive(
            Simulation, False, recorder=TimelineRecorder(registry=False)
        ),
        "instrumented": lambda: drive(Simulation, True),
        "timeseries": lambda: drive(
            Simulation, True, recorder=TimelineRecorder(registry=False)
        ),
        "streaming": drive_streaming,
    }
    names = list(configs)
    times: dict[str, list[float]] = {name: [] for name in names}
    # interleave the configs within each round and vary their order:
    # sequential blocks or a fixed order bias the comparison (warm-up,
    # CPU frequency drift and the previous config's leftovers land on
    # whichever config runs first or after the heaviest one), which at
    # a 2% threshold drowns the signal being gated.  Round i starts at
    # config i and walks the ring of five with step 1..4 (each coprime
    # with 5), so every config leads in turn and none always follows
    # the same one.
    n = len(names)
    for i in range(repeats):
        step = 1 + i % (n - 1)
        for j in range(n):
            name = names[(i + j * step) % n]
            times[name].append(configs[name]())

    best = {name: min(times[name]) for name in names}
    bare_s = max(best["bare"], 1e-9)
    out = {f"{name}_s": best[name] for name in names}
    for name in names[1:]:
        out[f"{name}_overhead"] = best[name] / bare_s - 1.0
    return out


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def run_suite(tiny: bool, repeats: int) -> dict:
    """Best-of-``repeats`` seconds per kernel, plus derived ratios."""
    scale = {
        "rebuild_stripes": 64 if tiny else 1024,
        "init_stripes": 32 if tiny else 160,
        "write_ops": 30 if tiny else 120,
        "engine_requests": 2000 if tiny else 20000,
        "openloop_arrivals": 2000 if tiny else 20000,
        "sweep_seeds": 4 if tiny else 16,
        "sweep_stripes": 4 if tiny else 12,
        "nemesis_days": 30.0 if tiny else 365.0,
    }

    def best(fn) -> float:
        return min(fn() for _ in range(repeats))

    kernels: dict[str, float] = {}
    print(f"perfbench ({'tiny' if tiny else 'full'} scale, best of {repeats})")
    kernels["rebuild_cached"] = best(
        lambda: kernel_rebuild(scale["rebuild_stripes"], plan_cache=True)
    )
    print(f"  rebuild_cached    {kernels['rebuild_cached']:.3f} s")
    kernels["rebuild_nocache"] = best(
        lambda: kernel_rebuild(scale["rebuild_stripes"], plan_cache=False)
    )
    print(f"  rebuild_nocache   {kernels['rebuild_nocache']:.3f} s")
    kernels["controller_init"] = best(
        lambda: kernel_controller_init(scale["init_stripes"])
    )
    print(f"  controller_init   {kernels['controller_init']:.3f} s")
    kernels["controller_init_warm"] = best(
        lambda: kernel_controller_init_warm(scale["init_stripes"])
    )
    print(f"  controller_init_warm {kernels['controller_init_warm']:.6f} s")
    kernels["cli_import"] = kernel_cli_import()
    print(f"  cli_import        {kernels['cli_import']:.3f} s")
    kernels["read_stream"] = best(lambda: kernel_read_stream(scale["engine_requests"]))
    print(f"  read_stream       {kernels['read_stream']:.3f} s")
    kernels["write_workload"] = best(lambda: kernel_write_workload(scale["write_ops"]))
    print(f"  write_workload    {kernels['write_workload']:.3f} s")
    kernels["engine_elevator"] = best(
        lambda: kernel_engine(scale["engine_requests"])
    )
    print(f"  engine_elevator   {kernels['engine_elevator']:.3f} s")
    kernels["batch_submission"] = best(
        lambda: kernel_batch(scale["engine_requests"])
    )
    print(f"  batch_submission  {kernels['batch_submission']:.3f} s")
    kernels["openloop_submit"] = best(
        lambda: kernel_openloop_submit(scale["openloop_arrivals"])
    )
    print(f"  openloop_submit   {kernels['openloop_submit']:.3f} s")
    kernels["user_read_submit"] = best(
        lambda: kernel_user_read_submit(scale["engine_requests"])
    )
    print(f"  user_read_submit  {kernels['user_read_submit']:.3f} s")
    kernels["plan_generation"] = best(kernel_plans)
    print(f"  plan_generation   {kernels['plan_generation']:.3f} s")
    kernels["nemesis_schedule"] = best(
        lambda: kernel_nemesis_schedule(scale["nemesis_days"])
    )
    print(f"  nemesis_schedule  {kernels['nemesis_schedule']:.3f} s")
    # the sweep kernels run once each: the pool spin-up is part of the cost
    kernels["campaign_serial"] = kernel_campaign(
        scale["sweep_seeds"], scale["sweep_stripes"], jobs=1
    )
    print(f"  campaign_serial   {kernels['campaign_serial']:.3f} s")
    kernels["campaign_parallel"] = kernel_campaign(
        scale["sweep_seeds"], scale["sweep_stripes"], jobs=0
    )
    print(f"  campaign_parallel {kernels['campaign_parallel']:.3f} s")
    kernels["campaign_pooled"] = kernel_campaign_pooled(
        scale["sweep_seeds"], scale["sweep_stripes"]
    )
    print(f"  campaign_pooled   {kernels['campaign_pooled']:.3f} s")
    obs = kernel_obs_overhead(scale["engine_requests"], repeats)
    names = ("bare", "null", "instrumented", "timeseries", "streaming")
    for name in names:
        kernels[f"engine_callback_{name}"] = obs[f"{name}_s"]
    print(f"  obs_overhead      bare {obs['bare_s']:.3f} s, "
          f"null {obs['null_overhead']:+.1%}, "
          f"instrumented {obs['instrumented_overhead']:+.1%}, "
          f"timeseries {obs['timeseries_overhead']:+.1%}, "
          f"streaming {obs['streaming_overhead']:+.1%}")

    derived = {
        **{
            f"obs_callback_{name}_overhead": obs[f"{name}_overhead"]
            for name in names[1:]
        },
        "plan_cache_speedup": kernels["rebuild_nocache"]
        / max(kernels["rebuild_cached"], 1e-9),
        "parallel_speedup": kernels["campaign_serial"]
        / max(kernels["campaign_parallel"], 1e-9),
        "pool_speedup": kernels["campaign_parallel"]
        / max(kernels["campaign_pooled"], 1e-9),
    }
    print(f"  plan-cache speedup {derived['plan_cache_speedup']:.2f}x, "
          f"parallel speedup {derived['parallel_speedup']:.2f}x, "
          f"pool speedup {derived['pool_speedup']:.2f}x "
          f"({os.cpu_count()} cores)")
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scale": "tiny" if tiny else "full",
        "repeats": repeats,
        "kernels": kernels,
        "derived": derived,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing for the serial kernels")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"trajectory file (default {DEFAULT_OUT.name})")
    parser.add_argument("--no-append", action="store_true",
                        help="overwrite the trajectory instead of appending")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="run only the observability overhead gate: "
                             "fail (exit 1) if the null-sink engine is "
                             "more than 2%% slower than the hook-free one")
    parser.add_argument("--obs-tolerance", type=float, default=0.02,
                        help="allowed null-sink slowdown for --obs-overhead "
                             "(default 0.02 = 2%%)")
    args = parser.parse_args(argv)

    if args.obs_overhead:
        n_requests = 2000 if args.tiny else 20000
        repeats = max(args.repeats, 5)  # 2%-level gating needs stable best-of
        obs = kernel_obs_overhead(n_requests, repeats)
        print(f"obs overhead gate ({n_requests} requests, each with a "
              f"completion callback, best of {repeats}):")
        print(f"  bare          {obs['bare_s']:.4f} s")
        for name in ("null", "instrumented", "timeseries", "streaming"):
            label = "null sink" if name == "null" else name
            print(f"  {label:<13} {obs[name + '_s']:.4f} s  "
                  f"({obs[name + '_overhead']:+.2%})")
        if obs["null_overhead"] > args.obs_tolerance:
            print(f"FAIL: null-sink overhead {obs['null_overhead']:.2%} exceeds "
                  f"{args.obs_tolerance:.0%}", file=sys.stderr)
            return 1
        print(f"OK: null-sink overhead within {args.obs_tolerance:.0%}")
        return 0

    record = run_suite(tiny=args.tiny, repeats=args.repeats)
    runs = []
    if not args.no_append and args.out.exists():
        try:
            runs = json.loads(args.out.read_text()).get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            print(f"warning: {args.out} unreadable, starting fresh",
                  file=sys.stderr)
    runs.append(record)
    args.out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    print(f"appended run #{len(runs)} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
