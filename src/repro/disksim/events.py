"""Discrete-event engine driving a set of independent disk servers.

Each disk is a single server with its own scheduler queue.  The engine
advances a global clock through request-completion events; completion
callbacks may submit further requests (this is how the RAID layer
implements read-before-write dependencies and windowed reconstruction
pipelines).

The engine is deterministic: ties are broken by event sequence number.

Observability
-------------
A completion does only what must happen at that instant: the per-disk
queue-depth gauge, the request's trace row, the fault hook and the
completion callback.  The trace row is the completed request itself,
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
per-completion updates.

Calendar
--------
Pending events live in the opcode calendar of
:mod:`repro.disksim.calendar`: completions are integer-payload events
dispatched through a two-entry opcode table, and the run loop pops
whole same-timestamp batches.  When the pending set is completions
only, with no callbacks and no fault hooks, the engine leaves the
per-event loop entirely and computes every disk's remaining timeline
vectorized (:meth:`Simulation._drain_fast`).  The drain is
bit-identical to the per-event loop; the property suite in
``tests/disksim/test_drain_property.py`` pins this.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from ..obs import default_recorder, default_registry, default_tracer, obs_enabled
from ..obs.export import IoSpan
from ..obs.timeseries import COLUMN_BOUND
from ..obs.tracing import Tracer
from .calendar import OP_COMPLETE, TypedCalendar
from .disk import DiskModel, DiskParameters
from .request import IOKind, IORequest
from .scheduler import ElevatorScheduler, Scheduler

__all__ = ["Simulation"]

Callback = Callable[[IORequest], None]


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
    )

    def __init__(self, sim: "Simulation", trace) -> None:
        reg = default_registry()
        requests = reg.counter("sim.requests", "completed I/O requests by kind")
        self.reads = requests.labels(kind="read")
        self.writes = requests.labels(kind="write")
        moved = reg.counter("sim.bytes", "bytes moved by completed requests")
        self.bytes_read = moved.labels(kind="read")
        self.bytes_written = moved.labels(kind="write")
        self.errors = reg.counter(
            "sim.request_errors", "requests completed carrying an error flag"
        ).labels()
        self.retries = reg.counter(
            "sim.request_retries", "completed requests that were retries (attempt > 0)"
        ).labels()
        self.latency = reg.histogram(
            "sim.request_latency_s", "submit-to-finish latency of completed requests"
        ).labels()
        self.dispatched = reg.counter(
            "sim.events_dispatched", "calendar events popped by the run loop"
        ).labels()
        qd = reg.gauge(
            "sim.queue_depth", "per-disk scheduler queue depth at last completion"
        )
        self.qd = [qd.labels(disk=str(d)) for d in range(len(sim.disks))]
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

    def fold(self, sim: "Simulation") -> None:
        """Fold the completions since the last fold into the instruments.

        Counters take one ``inc`` per label; the latency histogram and
        the ``sim.latency_s`` series take ``observe_many`` calls in
        completion order (bucket counts identical, running sum
        accumulated in the same order) — the state per-completion
        updates would have left.  Events dispatched are the
        completions plus the calendar calls claimed since the last
        fold.
        """
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
        # chunked, so a long run's fold needs only bounded scratch lists
        for start in range(lo, hi, COLUMN_BOUND):
            batch = completed[start : min(hi, start + COLUMN_BOUND)]
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

    def on_drain(self, completed: list[IORequest], disk_ids) -> None:
        """What the vectorized drain owes at completion time.

        The drained disks' queue-depth gauges land on their final depth
        (0 — the drain ran to quiescence), and one trace row per request
        passes the tracer's gate in completion order.  Everything
        cumulative is left to :meth:`fold`, as on the per-event path.
        """
        qd = self.qd
        for d in disk_ids:
            qd[int(d)].set(0)
        record = self.record_span
        if record is not None:
            pid = self.span_pid
            for r in completed:
                record(IoSpan(pid, r))


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
        self.params = params if params is not None else DiskParameters.savvio_10k3()
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
        if server.busy or not server.scheduler:
            return
        request = server.scheduler.pop(server.model.head_position)
        duration = server.model.serve(request)
        if self._service_factor is not None:
            factor = self._service_factor(request.disk, self.now)
            if factor != 1.0:
                # fail-slow inflation counts as busy time too
                server.model.busy_time += duration * (factor - 1.0)
                duration *= factor
        request.start_time = self.now
        finish = self.now + duration
        request.finish_time = finish
        server.busy = True
        server.current = request
        self._seq += 1
        self._cal.push(finish, self._seq, OP_COMPLETE, request.disk)

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until quiescence (or ``until``); returns the clock.

        The clock is monotone: ``until`` earlier than ``now`` is a no-op
        (time never moves backwards), and an idle engine still advances
        to ``until`` — ``run(until=t)`` on an empty calendar models
        waiting out wall-clock time with no I/O in flight.

        Events are popped in same-timestamp batches and dispatched by
        opcode (:meth:`_run_events`).  On the way out — normal return
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
        request, updates the queue-depth gauge and records its trace
        row (when observed), fires the callback and starts the disk's
        next request.  Whenever the pending set is completions-only with no
        callbacks outstanding and no fault hooks installed (checked per
        batch — a deferred ``OP_CALL`` firing can make the rest of the
        run eligible), the loop hands the whole remainder to
        :meth:`_drain_fast` instead of popping events one at a time.
        """
        cal = self._cal
        heap = cal._heap
        take_call = cal.take_call
        pop_batch = cal.pop_batch
        disks = self.disks
        faults = self.faults
        callbacks = self._callbacks
        pop_callback = callbacks.pop
        log = self.completed.append
        start_next = self._start_next
        obs = self._obs
        record_span = obs.record_span if obs is not None else None
        span_pid = obs.span_pid if obs is not None else 0
        while heap:
            if until is None and cal._n_call == 0 and faults is None and not callbacks:
                self._drain_fast()
                break
            t = heap[0][0]
            if until is not None and t > until:
                self.now = until
                return until
            self.now = t
            for _t, seq, opcode, arg0 in pop_batch():
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
                        obs.qd[arg0].set(len(server.scheduler))
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

    # ------------------------------------------------------------------
    def _drain_fast(self) -> None:
        """Run every pending completion to quiescence, vectorized.

        Preconditions (checked by :meth:`run`): the calendar
        holds only ``OP_COMPLETE`` events, no completion callbacks are
        registered, and no fault model is installed.  Under those
        conditions the disks are mutually independent — nothing a
        completion does can affect another disk — so each disk's
        remaining timeline is one scheduler :meth:`~repro.disksim.
        scheduler.Scheduler.drain` plus a vectorized service-time
        computation, and the global completion order is a merge of the
        per-disk streams.  Every float is produced by the same
        sequence of IEEE operations the per-event loop performs, so
        clocks, busy times and request timestamps are bit-identical.
        """
        cal = self._cal
        times, seqs, disk_ids = cal.drain_completions()
        disks = self.disks
        n_streams = len(times)
        stream_f: list[np.ndarray] = []   # finish times, in-flight head first
        stream_reqs: list[list[IORequest]] = []
        total = 0
        for si in range(n_streams):
            server = disks[int(disk_ids[si])]
            current = server.current
            t0 = float(times[si])
            queue = server.scheduler
            if queue:
                model = server.model
                reqs = queue.drain(model.head_position)
                durations = self._vector_service(model, reqs)
                k = len(reqs)
                f = np.empty(k + 1, dtype=np.float64)
                f[0] = t0
                f[1:] = durations
                np.cumsum(f, out=f)  # accumulate preserves serve order
                flist = f.tolist()
                prev = t0
                for r, ft in zip(reqs, flist[1:]):
                    r.start_time = prev
                    r.finish_time = ft
                    prev = ft
                stream = [current]
                stream.extend(reqs)
                stream_reqs.append(stream)
                total += 1 + k
            else:
                f = times[si : si + 1]
                stream_reqs.append([current])
                total += 1
            stream_f.append(f)
            server.busy = False
            server.current = None
        if not total:
            return
        self._pending -= total
        # global completion order: merge the per-disk streams the way
        # the calendar would have popped them
        if n_streams == 1:
            ordered = stream_reqs[0]
            self.now = float(stream_f[0][-1])
            self._seq += total - 1
        else:
            all_f = np.concatenate(stream_f)
            srt = np.sort(all_f)
            self.now = float(srt[-1])
            if (srt[1:] == srt[:-1]).any():
                # equal finish times across disks: replay the heap's
                # dynamic tie-breaking (each pop schedules the popped
                # disk's next completion with the next global seq)
                ordered = self._merge_streams(stream_f, stream_reqs, seqs)
            else:
                flat = np.empty(total, dtype=object)
                pos = 0
                for sr in stream_reqs:
                    flat[pos : pos + len(sr)] = sr
                    pos += len(sr)
                ordered = flat[np.argsort(all_f)].tolist()
                self._seq += total - n_streams
        self.completed.extend(ordered)
        if self._obs is not None:
            self._obs.on_drain(ordered, disk_ids)

    def _merge_streams(
        self,
        stream_f: list[np.ndarray],
        stream_reqs: list[list[IORequest]],
        seqs: np.ndarray,
    ) -> list[IORequest]:
        """Merge per-disk completion streams by ``(time, seq)``.

        The in-flight heads carry the seqs their events were scheduled
        with; every subsequent completion takes the next global seq at
        the moment its predecessor pops — exactly the per-event loop's
        assignment order, so ties resolve identically.
        """
        flists = [f.tolist() for f in stream_f]
        heap = [
            (flists[si][0], int(seqs[si]), si, 0) for si in range(len(flists))
        ]
        heapq.heapify(heap)
        seq = self._seq
        ordered: list[IORequest] = []
        while heap:
            t, s, si, i = heapq.heappop(heap)
            ordered.append(stream_reqs[si][i])
            ni = i + 1
            fl = flists[si]
            if ni < len(fl):
                seq += 1
                heapq.heappush(heap, (fl[ni], seq, si, ni))
        self._seq = seq
        return ordered

    def _vector_service(self, model: DiskModel, reqs: list[IORequest]) -> np.ndarray:
        """Service times for ``reqs`` served back to back, vectorized.

        Replicates :meth:`~repro.disksim.disk.DiskModel.service_time`
        and :meth:`~repro.disksim.disk.DiskModel.serve` elementwise —
        same expression grouping, so every duration is the bit-exact
        float the scalar path computes — and leaves the model's head,
        sequential-run and byte counters in the post-serve state.
        ``model.busy_time`` accumulates in serve order.
        """
        k = len(reqs)
        capacity = model.capacity
        off = np.fromiter((r.offset for r in reqs), np.int64, k)
        size = np.fromiter((r.size for r in reqs), np.int64, k)
        end = off + size
        if int(end.max()) > capacity:
            bad = reqs[int(np.argmax(end > capacity))]
            raise ValueError(
                f"request [{bad.offset}, {bad.end}) beyond disk capacity {capacity}"
            )
        is_write = np.fromiter((r.kind is IOKind.WRITE for r in reqs), np.bool_, k)
        # the head and last-transfer state chain through the batch: the
        # disk is busy, so its model already reflects the in-flight
        # request (head == last_end == its end)
        prev_end = np.empty(k, dtype=np.int64)
        prev_end[0] = model._last_end
        prev_end[1:] = end[:-1]
        prev_write = np.empty(k, dtype=np.bool_)
        prev_write[0] = model._last_kind is IOKind.WRITE
        prev_write[1:] = is_write[:-1]
        sequential = (off == prev_end) & (is_write == prev_write)
        transfer = np.where(is_write, size / model.write_rate, size / model.read_rate)
        dist = np.abs(off - prev_end)
        frac = np.minimum(1.0, dist / capacity)
        seek = np.where(
            dist <= 0, 0.0, model.t2t_seek_s + model.seek_span_s * np.sqrt(frac)
        )
        overhead = np.where(is_write, model.write_overhead_s, model.read_overhead_s)
        scattered = ((seek + model.half_rotation_s) + transfer) + overhead
        durations = np.where(sequential, transfer, scattered)
        # post-serve model state
        n_seq = int(np.count_nonzero(sequential))
        model.n_sequential += n_seq
        model.n_scattered += k - n_seq
        bytes_written = int(size[is_write].sum())
        bytes_total = int(size.sum())
        model.bytes_written += bytes_written
        model.bytes_read += bytes_total - bytes_written
        busy = np.empty(k + 1, dtype=np.float64)
        busy[0] = model.busy_time
        busy[1:] = durations
        np.cumsum(busy, out=busy)
        model.busy_time = float(busy[-1])
        last_end = int(end[-1])
        model._head = last_end
        model._last_end = last_end
        model._last_kind = reqs[-1].kind
        return durations

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

    def drain(self) -> float:
        """Alias of :meth:`run` to quiescence."""
        return self.run()

    # ------------------------------------------------------------------
    @property
    def n_disks(self) -> int:
        return len(self.disks)

    def disk(self, disk_id: int) -> DiskModel:
        return self.disks[disk_id].model

    @property
    def total_bytes_read(self) -> int:
        return sum(s.model.bytes_read for s in self.disks)

    @property
    def total_bytes_written(self) -> int:
        return sum(s.model.bytes_written for s in self.disks)

    def pending_count(self) -> int:
        """Requests accepted and not yet completed, queued or in service — O(1)."""
        return self._pending
