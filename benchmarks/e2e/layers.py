"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: a traced run wraps the public
functions and methods each layer exposes (:data:`TARGETS`), records one
span per call (name, layer, start, end, parent) in memory, and derives
each layer's *self time* — its span time minus the part its child spans
cover — online, so the layer totals are exact even when the stored span
list is capped.

Module-level functions are patched in the defining module and under
every name a loaded ``repro`` module binds them to (``serve.py`` calls
``open_arrivals`` through its own global).  Methods are patched on the
class and on every subclass that overrides them.  Context-manager
factories (``scoped_registry``, ``scoped_recorder``) get one span for
entering and one for leaving the block, never one around the block,
which would charge the whole body to ``obs``.
"""

from __future__ import annotations

import functools
import importlib
import json
import mmap
import os
import sys
from time import perf_counter

#: Layer name -> public calls timed in that layer, as ``module:qualname``.
TARGETS: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.openloop:open_arrivals",
        "repro.workloads.generator:user_read_stream",
        "repro.workloads.generator:random_large_writes",
        "repro.workloads.openloop:SLOAccountant.record",
        "repro.workloads.openloop:SLOAccountant.summary",
        "repro.workloads.film:FilmSource.element",
        "repro.workloads.film:FilmSource.fresh",
    ),
    "core": (
        "repro.core.registry:build_layout",
        "repro.core.plancache:PlanCache.plan",
        "repro.core.plancache:PlanCache.phases",
        "repro.core.plancache:PlanCache.read_rounds",
        "repro.core.layouts:Layout.write_plan",
    ),
    "disksim.array": (
        "repro.disksim.array:ElementArray.__init__",
        "repro.disksim.array:ElementArray.submit_elements",
        "repro.disksim.array:ElementArray.submit_batch",
    ),
    "disksim.events": (
        "repro.disksim.events:Simulation.__init__",
        "repro.disksim.events:Simulation.run",
        "repro.disksim.events:Simulation.submit",
        "repro.disksim.events:Simulation.submit_many",
        "repro.disksim.events:Simulation.submit_many_at",
        "repro.disksim.events:Simulation.schedule",
    ),
    "raidsim.controller": (
        "repro.raidsim.controller:RaidController.__init__",
        "repro.raidsim.controller:RaidController.rebuild",
        "repro.raidsim.controller:RaidController.stripe_plan",
        "repro.raidsim.controller:RaidController.run_write_workload",
        "repro.raidsim.controller:RaidController.verify_redundancy",
    ),
    "raidsim": (
        "repro.raidsim.serve:compare_serve",
        "repro.raidsim.serve:run_serve",
        "repro.raidsim.leaderboard:run_leaderboard",
        "repro.raidsim.leaderboard:run_leaderboard_entry",
        "repro.raidsim.campaign:compare_sweep",
        "repro.raidsim.campaign:compare_arrangements",
        "repro.raidsim.campaign:run_campaign",
        "repro.raidsim.campaign:clean_rebuild_makespan",
        "repro.raidsim.reconstruction:OnlineReconstruction.run",
        "repro.raidsim.reconstruction:degraded_read_sources",
        "repro.raidsim.writes:measure_write_throughput",
        "repro.raidsim.availability:average_reconstruction_throughput",
    ),
    "nemesis": (
        "repro.nemesis.campaign:run_nemesis_campaign",
        "repro.nemesis.schedule:build_schedule",
        "repro.nemesis.anomaly:AnomalyDetector.observe",
        "repro.nemesis.anomaly:AnomalyDetector.report",
        "repro.nemesis.tracker:FaultTimeline.from_schedule",
    ),
    "obs": (
        "repro.obs.timeseries:TimeSeries.observe",
        "repro.obs.timeseries:TimelineRecorder.advance_to",
        "repro.obs.timeseries:TimelineRecorder.snapshot",
        "repro.obs.timeseries:TimelineRecorder.merge",
        "repro.obs.timeseries:scoped_recorder",
        "repro.obs.metrics:scoped_registry",
        "repro.obs.metrics:MetricsRegistry.snapshot",
        "repro.obs.metrics:MetricsRegistry.merge",
        "repro.obs.tracing:Tracer.flush",
        "repro.obs.tracing:Tracer.phase_boundary",
        "repro.obs.tracing:Tracer.close",
        "repro.obs.export:JsonlTraceSink.write_events",
    ),
    "parallel": (
        "repro.parallel:parallel_map",
        "repro.parallel:WorkerPool.__init__",
        "repro.parallel:WorkerPool.share_film",
        "repro.parallel:WorkerPool.map",
        "repro.parallel:WorkerPool.close",
    ),
    "experiments": (
        "repro.experiments.fig9:run_a",
        "repro.experiments.fig9:run_b",
        "repro.experiments.fig10:run_a",
        "repro.experiments.fig10:run_b",
    ),
}

LAYERS = tuple(TARGETS)

#: Factories whose *block* must not become a span (see module docstring).
_CONTEXT_MANAGERS = {"scoped_recorder", "scoped_registry"}

#: Spans kept for the spans file; layer totals never depend on the cap.
SPAN_CAP = 100_000


def _resolve(target: str):
    """``module:Qual.name`` -> (owner object, attribute name)."""
    mod_name, qual = target.split(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self.set(mod, name, new)

    def method(self, cls, attr: str, make) -> None:
        """Wrap a method on ``cls`` and on each subclass overriding it."""
        for c in _subclasses(cls):
            raw = c.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self.set(c, attr, classmethod(make(raw.__func__)))
            else:
                self.set(c, attr, make(raw))

    def patch(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            self.method(owner, attr, make)
        else:
            self.function(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class RequestCounter:
    """Requests completed by ``Simulation.run`` here and in forked workers.

    ``Simulation.completed`` is append-only and completions happen only
    inside ``run``, so wrapping ``run`` counts every one.  Each process
    adds to its own slot of one shared anonymous mapping (no lock, no
    file); a process forked after :meth:`install` takes the next slot.
    """

    SLOTS = 64

    def __init__(self) -> None:
        self._slots = memoryview(mmap.mmap(-1, 8 * self.SLOTS)).cast("q")
        self._mine = 0
        self._next = 0

    def _before_fork(self) -> None:
        # past SLOTS a worker's first count raises IndexError
        self._next += 1

    def _in_child(self) -> None:
        self._mine = self._next

    @property
    def total(self) -> int:
        return sum(self._slots)

    def install(self, patcher: Patcher) -> None:
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)
        slots = self._slots

        def make(run):
            @functools.wraps(run)
            def counted(sim, *args, **kwargs):
                before = len(sim.completed)
                try:
                    return run(sim, *args, **kwargs)
                finally:
                    slots[self._mine] += len(sim.completed) - before

            return counted

        patcher.patch("repro.disksim.events:Simulation.run", make)


class LayerTracer:
    """In-memory spans plus exact per-layer self time and counts."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: inclusive seconds per timed call name
        self.inclusive_s: dict[str, float] = {}
        #: work counters read off arguments and results (see _COUNTERS)
        self.counts: dict[str, float] = {}
        #: ``FaultStats`` objects seen, by id (held so ids stay unique)
        self.fault_stats: dict[int, object] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.origin = perf_counter()

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, t0: float, t1: float) -> None:
        self._stack.pop()
        d = t1 - t0
        self.self_s[layer] += d - frame[2]
        self.calls[layer] += 1
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + d
        if self._stack:
            self._stack[-1][2] += d
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], frame[1], name, layer, t0, t1))
        else:
            self.dropped += 1

    def span(self, fn, name: str, layer: str):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, name, layer, t0, perf_counter())

        return traced

    def context_span(self, factory, name: str, layer: str):
        tracer = self

        class Timed:
            def __init__(self, cm) -> None:
                self.cm = cm

            def __enter__(self):
                return tracer.span(self.cm.__enter__, name, layer)()

            def __exit__(self, *exc):
                return tracer.span(self.cm.__exit__, name, layer)(*exc)

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return Timed(factory(*args, **kwargs))

        return traced

    def install(self, patcher: Patcher) -> None:
        for layer, targets in TARGETS.items():
            for target in targets:
                qual = target.split(":")[1]
                counter = _COUNTERS.get(qual)

                def make(fn, qual=qual, layer=layer, counter=counter):
                    if counter is not None:
                        fn = counter(fn, self)
                    if qual in _CONTEXT_MANAGERS:
                        return self.context_span(fn, qual, layer)
                    return self.span(fn, qual, layer)

                patcher.patch(target, make)

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path, header: dict) -> None:
        """One header line, then one line per stored span (times from origin)."""
        with open(path, "w", encoding="utf-8") as fh:
            head = dict(header, spans=len(self.spans), spans_dropped=self.dropped)
            fh.write(json.dumps(head) + "\n")
            o = self.origin
            for sid, parent, name, layer, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "layer": layer,
                    "start": t0 - o, "end": t1 - o,
                }) + "\n")


# ----------------------------------------------------------------------
# counters read off the timed calls: qualname -> fn(orig, tracer) -> fn
# ----------------------------------------------------------------------
def _count_arrivals(fn, tr):
    def arrivals(*args, **kwargs):
        out = fn(*args, **kwargs)
        tr.count("arrivals", len(out))
        return out

    return arrivals


def _count_plan_lookups(fn, tr):
    def plan(cache, *args, **kwargs):
        hits, misses = cache.hits, cache.misses
        try:
            return fn(cache, *args, **kwargs)
        finally:
            tr.count("plan_hits", cache.hits - hits)
            tr.count("plan_misses", cache.misses - misses)

    return plan


def _count_batch(fn, tr):
    def submit_batch(array, disks, *args, **kwargs):
        out = fn(array, disks, *args, **kwargs)
        tr.count("batch_ops", len(disks))
        tr.count("batch_requests", len(out))
        return out

    return submit_batch


def _count_controllers(fn, tr):
    def init(ctrl, *args, **kwargs):
        fn(ctrl, *args, **kwargs)
        tr.count("controllers", 1)

    return init


def _keep_fault_stats(fn, tr):
    def rebuild(ctrl, *args, **kwargs):
        out = fn(ctrl, *args, **kwargs)
        if out.fault_stats is not None:
            tr.fault_stats[id(out.fault_stats)] = out.fault_stats
        return out

    return rebuild


def _count_ticks(fn, tr):
    def campaign(*args, **kwargs):
        report = fn(*args, **kwargs)
        if report is not None:
            tr.count("ticks", report.traditional.n_ticks + report.shifted.n_ticks)
        return report

    return campaign


def _count_map_tasks(fn, tr):
    def parallel_map(work, items, *args, **kwargs):
        items = list(items)
        # with a pool, WorkerPool.map counts the same items
        if kwargs.get("pool") is None:
            tr.count("tasks", len(items))
        return fn(work, items, *args, **kwargs)

    return parallel_map


def _count_pool_tasks(fn, tr):
    def map(pool, work, items, *args, **kwargs):
        items = list(items)
        tr.count("tasks", len(items))
        return fn(pool, work, items, *args, **kwargs)

    return map


_COUNTERS = {
    "open_arrivals": _count_arrivals,
    "user_read_stream": _count_arrivals,
    "PlanCache.plan": _count_plan_lookups,
    "ElementArray.submit_batch": _count_batch,
    "RaidController.__init__": _count_controllers,
    "RaidController.rebuild": _keep_fault_stats,
    "run_nemesis_campaign": _count_ticks,
    "parallel_map": _count_map_tasks,
    "WorkerPool.map": _count_pool_tasks,
}
