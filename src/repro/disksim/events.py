"""Discrete-event engine driving a set of independent disk servers.

Each disk is a single server with its own scheduler queue.  The engine
advances a global clock through request-completion events; completion
callbacks may submit further requests (this is how the RAID layer
implements read-before-write dependencies and windowed reconstruction
pipelines).

The engine is deterministic: ties are broken by event sequence number.

Observability
-------------
A completion does only what must happen at that instant: the request's
trace row, the fault hook, the completion callback, and a store of its
disk's queue depth into a plain per-disk list.  The trace row is the completed request itself,
paired with its track group's pid offset
(:class:`~repro.obs.export.IoSpan`); it passes the tracer's sampling
and watermark gate at once, and is rendered into a span only when the
tracer exports it.  Everything cumulative — ``sim.requests``,
``sim.bytes``, errors, retries, events dispatched, the
``sim.request_latency_s`` histogram and the flight recorder's
``sim.latency_s`` series — is folded from the append-only
``completed`` log once per :meth:`Simulation.run`, in its ``finally``
block, from a per-simulation watermark, so a nested or ``until=``-split
run never counts a completion twice.  The fold walks the log in
completion order, so every instrument ends bit-identical to
per-completion updates.  The ``sim.queue_depth`` gauges are set there
too, for each disk that completed a request since the last fold, from
the depth list, in first-completion order.  The same fold drains the owning
:class:`~repro.disksim.array.ElementArray`'s submission log into the
``array.*`` instruments.

Calendar
--------
Pending events live in the opcode calendar of
:mod:`repro.disksim.calendar`: completions are integer-payload events
dispatched through a two-entry opcode table, pushed onto the
calendar's heap as the disk starts the request, and the run loop pops
one event at a time in ``(time, seq)`` order.  There is one run loop:
every completion, with or without a callback, fault hook or tracer,
takes the same per-event step in :meth:`Simulation._run_events`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable

from ..obs import default_recorder, default_registry, default_tracer, obs_enabled
from ..obs.export import IoSpan
from ..obs.timeseries import COLUMN_BOUND
from ..obs.tracing import Tracer
from .calendar import OP_COMPLETE, TypedCalendar
from .disk import DEFAULT_PARAMS, DiskModel, DiskParameters
from .request import IOKind, IORequest
from .scheduler import ElevatorScheduler, Scheduler

__all__ = ["Simulation"]

Callback = Callable[[IORequest], None]


def _sim_instruments(reg, n_disks: int) -> tuple:
    """The engine's bound instruments, for :meth:`MetricsRegistry.bound`:
    request and byte counters by kind, errors, retries, the latency
    histogram, events dispatched and one ``sim.queue_depth`` gauge per
    disk."""
    requests = reg.counter("sim.requests", "completed I/O requests by kind")
    moved = reg.counter("sim.bytes", "bytes moved by completed requests")
    errors = reg.counter("sim.request_errors", "requests completed carrying an error flag")
    retries = reg.counter(
        "sim.request_retries", "completed requests that were retries (attempt > 0)"
    )
    latency = reg.histogram(
        "sim.request_latency_s", "submit-to-finish latency of completed requests"
    )
    dispatched = reg.counter("sim.events_dispatched", "calendar events popped by the run loop")
    qd = reg.gauge("sim.queue_depth", "per-disk scheduler queue depth at last completion")
    return (
        requests.labels(kind="read"),
        requests.labels(kind="write"),
        moved.labels(kind="read"),
        moved.labels(kind="write"),
        errors.labels(),
        retries.labels(),
        latency.labels(),
        dispatched.labels(),
        tuple(qd.labels(disk=str(d)) for d in range(n_disks)),
    )


class _SimObs:
    """One simulation's observability hooks.

    Instantiated only when observability is on (or a tracer is
    attached); the engine otherwise carries ``_obs = None`` and its hot
    path pays a single ``is not None`` check per completion — the
    null-sink contract gated by ``perfbench --obs-overhead``.
    """

    __slots__ = (
        "record_span",
        "span_pid",
        "qd",
        "depth",
        "reads",
        "writes",
        "bytes_read",
        "bytes_written",
        "errors",
        "retries",
        "latency",
        "dispatched",
        "ts_latency",
        "folded",
        "calls_folded",
        "batches",
    )

    def __init__(self, sim: "Simulation", trace) -> None:
        (
            self.reads,
            self.writes,
            self.bytes_read,
            self.bytes_written,
            self.errors,
            self.retries,
            self.latency,
            self.dispatched,
            self.qd,
        ) = default_registry().bound(_sim_instruments, len(sim.disks))
        #: each disk's scheduler queue depth at its last completion; the
        #: fold copies it into ``qd``
        self.depth = [0] * len(sim.disks)
        # flight-recorder series: windowed latency over the simulated
        # clock (None when no recorder is installed)
        rec = sim.recorder
        self.ts_latency = (
            rec.series("sim.latency_s", "request latency over simulated time")
            if rec is not None
            else None
        )
        # a bare Tracer gets its own track group; a TraceGroup (handed
        # down by the RAID controller, already labelled) is used as-is
        group = trace.group("array") if isinstance(trace, Tracer) else trace
        if group is not None:
            for d in range(len(sim.disks)):
                group.name_track(d, f"disk {d}")
        #: the tracer's recording gate and this group's pid offset,
        #: bound once: a completion records ``IoSpan(span_pid, request)``
        self.record_span = group.tracer._record if group is not None else None
        self.span_pid = group.base_pid if group is not None else 0
        #: fold watermarks: ``completed`` entries and claimed calendar
        #: calls already counted
        self.folded = 0
        self.calls_folded = 0
        #: the owning :class:`~repro.disksim.array.ElementArray`'s
        #: submission log (its ``_ArrayObs``), folded with the
        #: completions; ``None`` for a bare simulation
        self.batches = None

    def fold(self, sim: "Simulation") -> None:
        """Fold the completions since the last fold into the instruments.

        Counters take one ``inc`` per label; the latency histogram and
        the ``sim.latency_s`` series take ``observe_many`` calls in
        completion order (bucket counts identical, running sum
        accumulated in the same order) — the state per-completion
        updates would have left.  Each disk that completed a request
        since the last fold gets its ``sim.queue_depth`` gauge set to
        the depth stored at its last completion, in the order of the
        disks' first completions, so the gauges' values and label order
        are what a ``set`` per completion would have left.  Events
        dispatched are the completions plus the calendar calls claimed
        since the last fold.  The owning array's logged submissions
        fold first.
        """
        batches = self.batches
        if batches is not None and batches.log:
            batches.fold()
        completed = sim.completed
        lo = self.folded
        hi = len(completed)
        calls = sim._cal.n_taken - self.calls_folded
        self.calls_folded += calls
        if calls or hi > lo:
            self.dispatched.inc(calls + hi - lo)
        if hi == lo:
            return
        self.folded = hi
        n_writes = bytes_written = bytes_read = n_errors = n_retries = 0
        write = IOKind.WRITE
        latency = self.latency
        ts = self.ts_latency
        touched: dict[int, None] = {}
        # chunked, so a long run's fold needs only bounded scratch lists
        for start in range(lo, hi, COLUMN_BOUND):
            batch = completed[start : min(hi, start + COLUMN_BOUND)]
            touched.update(dict.fromkeys([r.disk for r in batch]))
            for r in batch:
                if r.kind is write:
                    n_writes += 1
                    bytes_written += r.size
                else:
                    bytes_read += r.size
                if r.error:
                    n_errors += 1
                if r.attempt:
                    n_retries += 1
            finish = [r.finish_time for r in batch]
            lat = [f - r.submit_time for f, r in zip(finish, batch)]
            latency.observe_many(lat)
            if ts is not None:
                ts.observe_many(finish, lat)
        if n_writes:
            self.writes.inc(n_writes)
            self.bytes_written.inc(bytes_written)
        if n_writes < hi - lo:
            self.reads.inc(hi - lo - n_writes)
            self.bytes_read.inc(bytes_read)
        if n_errors:
            self.errors.inc(n_errors)
        if n_retries:
            self.retries.inc(n_retries)
        qd = self.qd
        depth = self.depth
        for d in touched:
            qd[d].set(depth[d])


class _DiskServer:
    """One disk plus its queue and busy state."""

    __slots__ = ("model", "scheduler", "busy", "current")

    def __init__(self, model: DiskModel, scheduler: Scheduler) -> None:
        self.model = model
        self.scheduler = scheduler
        self.busy = False
        self.current: IORequest | None = None


class Simulation:
    """Event-driven simulation of an array of disks.

    Parameters
    ----------
    n_disks:
        Number of disks, ids ``0 .. n_disks - 1``.
    params:
        Disk parameters shared by all disks (homogeneous array, as in
        the paper's testbed).
    scheduler_factory:
        Zero-argument callable producing a fresh scheduler per disk;
        defaults to the elevator.
    """

    def __init__(
        self,
        n_disks: int,
        params: DiskParameters | None = None,
        scheduler_factory: Callable[[], Scheduler] = ElevatorScheduler,
        faults=None,
        tracer=None,
        recorder=None,
    ) -> None:
        if n_disks < 1:
            raise ValueError(f"need at least one disk, got {n_disks}")
        self.params = params if params is not None else DEFAULT_PARAMS
        #: optional fault model: a
        #: :class:`repro.disksim.faults.LatentSectorErrors` or the
        #: richer :class:`repro.disksim.faultplan.ActiveFaults` (duck
        #: typed — ``on_completion`` is required, ``service_factor``
        #: consulted when present)
        self.faults = faults
        #: hoisted fail-slow hook — resolving the attribute once instead
        #: of a ``getattr`` per request start
        self._service_factor = getattr(faults, "service_factor", None)
        self.disks = [
            _DiskServer(DiskModel(d, self.params), scheduler_factory())
            for d in range(n_disks)
        ]
        self.now: float = 0.0
        self._cal = TypedCalendar()
        #: the calendar's heap, which completions are pushed onto directly
        self._heap = self._cal._heap
        self._seq = 0
        #: requests accepted and not yet completed (queued or in service)
        self._pending = 0
        self.completed: list[IORequest] = []
        self._callbacks: dict[int, Callback] = {}
        #: observability hooks: a ``_SimObs`` when metrics/tracing are
        #: on, else ``None`` — the null-sink fast path.  ``tracer`` may
        #: be a :class:`~repro.obs.tracing.Tracer` or an
        #: already-labelled :class:`~repro.obs.tracing.TraceGroup`;
        #: with no explicit tracer the process default tracer applies,
        #: and ``tracer=False`` opts this simulation out of tracing
        #: even when a default tracer is installed.
        if tracer is False:
            trace = None
        elif tracer is not None:
            trace = tracer
        else:
            trace = default_tracer()
        #: flight recorder for simulated-time windowed timeseries.
        #: ``recorder=False`` opts out; with no explicit recorder the
        #: process default applies — which is ``None`` under
        #: ``REPRO_OBS=0``, so recording is skipped entirely.  The
        #: engine advances the recorder's windows once per ``run()``
        #: call, in the run loop's ``finally`` block.
        if recorder is False:
            self.recorder = None
        elif recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = default_recorder()
        self._obs = (
            _SimObs(self, trace) if (trace is not None or obs_enabled()) else None
        )

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        self.schedule_call(delay, action)

    def schedule_call(self, delay: float, action: Callable[..., None], *args) -> None:
        """Run ``action(*args)`` ``delay`` seconds from now.

        Passing the arguments through the event instead of a closure
        keeps hot paths allocation-light.  This is the calendar's fully
        general ``OP_CALL`` escape hatch (the callable lives in a side
        table); completions scheduled by the engine itself take the
        integer-payload fast path.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        self._cal.push_call(self.now + delay, self._seq, action, args)

    def submit(self, request: IORequest, callback: Callback | None = None) -> None:
        """Enqueue a request on its disk, starting service if idle."""
        if not 0 <= request.disk < len(self.disks):
            raise ValueError(f"request targets unknown disk {request.disk}")
        request.submit_time = self.now
        if callback is not None:
            self._callbacks[request.req_id] = callback
        server = self.disks[request.disk]
        server.scheduler.add(request)
        self._pending += 1
        if not server.busy:
            self._start_next(server)

    def submit_many(self, requests, callback: Callback | None = None) -> None:
        """Enqueue a pre-built batch of requests in one engine call.

        Semantically identical to calling :meth:`submit` per request in
        order (idle disks start serving as soon as their first request
        lands, so scheduler decisions are unchanged); the batch form
        hoists the attribute lookups and bounds bookkeeping out of the
        per-request path, which is what the vectorized
        :meth:`~repro.disksim.array.ElementArray.submit_batch` wants.
        """
        disks = self.disks
        n = len(disks)
        callbacks = self._callbacks
        now = self.now
        accepted = 0
        try:
            for request in requests:
                d = request.disk
                if not 0 <= d < n:
                    raise ValueError(f"request targets unknown disk {d}")
                request.submit_time = now
                if callback is not None:
                    callbacks[request.req_id] = callback
                server = disks[d]
                server.scheduler.add(request)
                accepted += 1
                if not server.busy:
                    self._start_next(server)
        finally:
            self._pending += accepted

    def submit_at(self, time: float, request: IORequest, callback: Callback | None = None) -> None:
        """Submit a request at an absolute future simulation time."""
        if time < self.now:
            raise ValueError(f"cannot submit in the past ({time} < {self.now})")
        self.schedule_call(time - self.now, self.submit, request, callback)

    def submit_many_at(
        self, time: float, requests, callback: Callback | None = None
    ) -> None:
        """Submit a pre-built batch at an absolute future simulation time.

        The open-loop arrival primitive: the batch lands on the disks at
        its arrival instant regardless of what is still in flight — no
        completion backpressure — and drains through
        :meth:`submit_many`.  Arrival scheduling rides the calendar's
        ``OP_CALL`` path, so interleaved completions keep their
        deterministic (time, seq) order.
        """
        if time < self.now:
            raise ValueError(f"cannot submit in the past ({time} < {self.now})")
        self.schedule_call(time - self.now, self.submit_many, requests, callback)

    # ------------------------------------------------------------------
    def _start_next(self, server: _DiskServer) -> None:
        """Start the disk's next request, if it is idle and has one.

        The scheduler picks by the head's position, the model prices
        the request in one call, and the completion goes straight onto
        the calendar's heap as an ``OP_COMPLETE`` event.
        """
        if server.busy or not server.scheduler:
            return
        model = server.model
        request = server.scheduler.pop(model._head)
        duration = model.serve(request)
        now = self.now
        if self._service_factor is not None:
            factor = self._service_factor(request.disk, now)
            if factor != 1.0:
                # fail-slow inflation counts as busy time too
                model.busy_time += duration * (factor - 1.0)
                duration *= factor
        request.start_time = now
        finish = now + duration
        request.finish_time = finish
        server.busy = True
        server.current = request
        self._seq += 1
        heappush(self._heap, (finish, self._seq, OP_COMPLETE, request.disk))

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until quiescence (or ``until``); returns the clock.

        The clock is monotone: ``until`` earlier than ``now`` is a no-op
        (time never moves backwards), and an idle engine still advances
        to ``until`` — ``run(until=t)`` on an empty calendar models
        waiting out wall-clock time with no I/O in flight.

        Events are popped one at a time in ``(time, seq)`` order and
        dispatched by opcode (:meth:`_run_events`).  On the way out — normal return
        or exception — the completions since the last fold are folded
        into the metrics, then the flight recorder advances to the
        clock.
        """
        if until is not None and until <= self.now:
            return self.now
        try:
            return self._run_events(until)
        finally:
            obs = self._obs
            if obs is not None:
                obs.fold(self)
            rec = self.recorder
            if rec is not None:
                rec.advance_to(self.now)

    def _run_events(self, until: float | None) -> float:
        """The event loop of :meth:`run`, completion step inlined.

        A completion frees its disk, runs the fault hook, logs the
        request, stores its disk's queue depth and records its trace
        row (when observed), fires the callback and starts the disk's
        next request.
        """
        heap = self._heap
        take_call = self._cal.take_call
        limit = inf if until is None else until
        disks = self.disks
        faults = self.faults
        pop_callback = self._callbacks.pop
        log = self.completed.append
        start_next = self._start_next
        obs = self._obs
        record_span = obs.record_span if obs is not None else None
        span_pid = obs.span_pid if obs is not None else 0
        depth = obs.depth if obs is not None else None
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
                if obs is not None:
                    depth[arg0] = len(server.scheduler)
                    if record_span is not None:
                        record_span(IoSpan(span_pid, request))
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

    def max_finish_time_since(self, index: int, default: float = 0.0) -> float:
        """Latest completion time among ``completed[index:]`` — O(1).

        ``completed`` is append-only in event-pop order and the clock
        is monotone, so finish times are non-decreasing along the log:
        the tail's maximum is simply its last entry.  The rebuild loop
        asks this after every pass; the old linear re-scan of the tail
        made that aggregation quadratic in the number of requests.
        """
        completed = self.completed
        if len(completed) > index:
            latest = completed[-1].finish_time
            if latest > default:
                return latest
        return default

    # ------------------------------------------------------------------
    @property
    def total_bytes_read(self) -> int:
        return sum(s.model.bytes_read for s in self.disks)

    @property
    def total_bytes_written(self) -> int:
        return sum(s.model.bytes_written for s in self.disks)

    def pending_count(self) -> int:
        """Requests accepted and not yet completed, queued or in service — O(1)."""
        return self._pending
