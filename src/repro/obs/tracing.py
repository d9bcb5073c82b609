"""Span tracing with chrome://tracing ("Trace Event Format") export.

A :class:`Tracer` collects timestamped spans — explicit
``complete(name, ts, dur)`` records and the engine's per-request rows.
Timestamps are *simulated seconds*.

Tracks are organised the chrome-trace way: a *pid* is a track group
(we use one pid per simulated disk, so a rebuild renders as a Gantt
chart of spindles in Perfetto / ``chrome://tracing``) and a *tid* is a
row inside it.  :meth:`Tracer.group` hands out non-overlapping pid
ranges so several simulations — e.g. the traditional and the shifted
arrangement of one campaign — coexist in a single trace without
colliding.

Two sink modes:

* **buffered** (default, ``sink=None``) — every event accumulates in
  :attr:`Tracer.events` and is exported at end-of-run
  (:func:`repro.obs.export.write_chrome_trace`);
* **streaming** (``sink=`` a :class:`repro.obs.export.JsonlTraceSink`)
  — :attr:`Tracer.events` is a *bounded* buffer that drains to the
  sink whenever it reaches :attr:`Tracer.buffer_watermark` events
  (default :data:`DEFAULT_BUFFER_WATERMARK`), at every
  :meth:`phase_boundary`, and on
  :meth:`close`.  Peak tracer memory is then the watermark, not the
  campaign length — the mode long fault campaigns run under.

Per-request spans (category in :data:`SAMPLED_CATS`) can additionally
be *sampled*: ``Tracer(sample=0.1)`` keeps a deterministic ~10% of
them while always keeping controller/phase spans, and the rate is
recorded in the exported trace header so downsampled files stay
honest.  ``--trace-sample`` sets this from the CLI.

The simulation engine records per-request spans as *rows*: an
:class:`repro.obs.export.IoSpan` pairing a completed request with its
track group's pid offset.  A row passes the same :meth:`Tracer._record`
gate as a :class:`TraceEvent` — same sampling draw, same watermark,
same counters — and reads like one, so :attr:`Tracer.events` may hold
both; the request becomes span text only when the row is exported.

Export lives in :mod:`repro.obs.export`; this module records, buffers
and drains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = [
    "TraceEvent",
    "Tracer",
    "TraceGroup",
    "SAMPLED_CATS",
    "DEFAULT_BUFFER_WATERMARK",
    "resolve_sample_rate",
]

#: pids per :meth:`Tracer.group` allocation — far more spindles than
#: any simulated array uses
GROUP_PID_STRIDE = 1000

#: streaming-buffer flush threshold (events) unless the ctor says otherwise
DEFAULT_BUFFER_WATERMARK = 4096

#: event categories subject to span sampling — the high-volume
#: per-request spans.  Controller/phase spans (``cat="rebuild"``) and
#: uncategorised spans are always kept: they are the trace's skeleton.
SAMPLED_CATS = frozenset({"io"})


def resolve_sample_rate(rate: float | None = None) -> float:
    """A span sample rate: the explicit value, else 1.

    Raises on values outside ``[0, 1]`` — a silent clamp would make the
    recorded header lie about what was dropped.
    """
    rate = 1.0 if rate is None else float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"span sample rate must be in [0, 1], got {rate}")
    return rate


@dataclass(slots=True)
class TraceEvent:
    """One trace record (a chrome "complete" event)."""

    name: str
    ph: str  # "X": complete
    ts: float  # seconds
    dur: float  # seconds ("X" only)
    pid: int
    tid: int
    cat: str = ""
    args: dict = field(default_factory=dict)


class Tracer:
    """Accumulates :class:`TraceEvent` records and io rows for one run.

    Parameters
    ----------
    sink:
        Optional streaming sink (duck-typed like
        :class:`repro.obs.export.JsonlTraceSink`).  With a sink
        attached, :attr:`events` is a bounded buffer drained at the
        watermark, at phase boundaries, and on :meth:`close`.
    sample:
        Keep probability for per-request spans (categories in
        :data:`SAMPLED_CATS`); ``None`` keeps them all.  Spans outside
        those categories are never dropped.
    sample_seed:
        Seed for the sampling decisions — two tracers with the same
        seed and rate drop the same spans, keeping sampled traces
        reproducible.
    buffer_watermark:
        Streaming flush threshold in buffered events.  Ignored without
        a sink.
    """

    def __init__(
        self,
        sink=None,
        sample: float | None = None,
        sample_seed: int = 2012,
        buffer_watermark: int = DEFAULT_BUFFER_WATERMARK,
    ) -> None:
        #: buffered :class:`TraceEvent` records and
        #: :class:`~repro.obs.export.IoSpan` rows, in record order
        self.events: list = []
        self.sink = sink
        self.sample = resolve_sample_rate(sample)
        self._rng = random.Random(sample_seed)
        self.buffer_watermark = max(1, int(buffer_watermark))
        #: events recorded (post-sampling), including already-flushed ones
        self.total_events = 0
        #: per-request spans dropped by the sampler
        self.dropped_events = 0
        self.closed = False
        self._process_names: dict[int, str] = {}
        self._names_flushed: set[int] = set()
        self._header_flushed = False
        self._next_pid_base = 0

    def __len__(self) -> int:
        """Events currently *buffered* (all events when no sink)."""
        return len(self.events)

    # ------------------------------------------------------------------
    def group(self, label: str) -> "TraceGroup":
        """Reserve a pid range for one track group (one simulation)."""
        base = self._next_pid_base
        self._next_pid_base += GROUP_PID_STRIDE
        return TraceGroup(self, base, label)

    def name_process(self, pid: int, name: str) -> None:
        """Human-readable track-group name shown by trace viewers."""
        self._process_names[pid] = name

    def process_names(self) -> dict[int, str]:
        return dict(self._process_names)

    def header_meta(self) -> dict:
        """The honesty header: sampling and buffering provenance.

        Embedded in both export formats so a reader of a downsampled
        trace can see the rate (and drop count, for end-of-run
        exports) instead of mistaking sparsity for idleness.
        """
        meta = {
            "format": "repro-trace/1",
            "sample_rate": self.sample,
            "sampled_cats": sorted(SAMPLED_CATS),
            "time_unit": "us",
        }
        if self.sink is not None:
            meta["buffer_watermark"] = self.buffer_watermark
        return meta

    # ------------------------------------------------------------------
    def _record(self, ev) -> None:
        """Sampling decision, buffer append, watermark check — the one gate.

        Every event and every engine io row passes here, in record
        order, so the sampler's random draws and the watermark flushes
        are the same whichever form a span takes.
        """
        if self.sample < 1.0 and ev.cat in SAMPLED_CATS:
            if self._rng.random() >= self.sample:
                self.dropped_events += 1
                return
        self.events.append(ev)
        self.total_events += 1
        if self.sink is not None and len(self.events) >= self.buffer_watermark:
            self.flush()

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int = 0,
        tid: int = 0,
        cat: str = "",
        **args,
    ) -> None:
        """Record a finished span with explicit start and duration."""
        self._record(TraceEvent(name, "X", ts, dur, pid, tid, cat, args))

    # ------------------------------------------------------------------
    # streaming: drain the bounded buffer into the sink
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain the buffer into the sink (no-op without one).

        Emits the honesty header on first flush and any track names
        registered since the previous flush, so a streamed file is a
        self-describing, viewer-loadable trace at every instant.
        """
        sink = self.sink
        if sink is None:
            return
        if not self._header_flushed:
            sink.write_header(self.header_meta())
            self._header_flushed = True
        new_names = {
            pid: name
            for pid, name in self._process_names.items()
            if pid not in self._names_flushed
        }
        if new_names:
            sink.write_process_names(new_names)
            self._names_flushed.update(new_names)
        if self.events:
            sink.write_events(self.events)
            self.events = []
        sink.flush()

    def phase_boundary(self) -> None:
        """Flush at a semantic boundary (end of a rebuild phase / sweep point).

        Phase boundaries are the natural durability points: an abrupt
        stop loses at most the current phase's sub-watermark tail.
        """
        self.flush()

    def close(self) -> None:
        """Final flush (events recorded after the last phase land here)
        and sink close.  Idempotent — exporters and ``finally`` blocks
        may both call it."""
        if self.closed:
            return
        self.closed = True
        if self.sink is not None:
            self.flush()
            self.sink.close()


class TraceGroup:
    """A pid-offset view of a tracer: one simulation's tracks.

    Every event recorded through a group lands in the group's reserved
    pid range, so two arrays traced into the same file keep separate
    per-disk tracks.
    """

    __slots__ = ("tracer", "base_pid", "label")

    def __init__(self, tracer: Tracer, base_pid: int, label: str) -> None:
        self.tracer = tracer
        self.base_pid = base_pid
        self.label = label

    def name_track(self, pid: int, name: str) -> None:
        """Name a track inside this group (e.g. ``disk 3``)."""
        self.tracer.name_process(
            self.base_pid + pid, f"{self.label}: {name}" if self.label else name
        )

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int = 0,
        tid: int = 0,
        cat: str = "",
        **args,
    ) -> None:
        self.tracer.complete(
            name, ts, dur, self.base_pid + pid, tid, cat, **args
        )

    def phase_boundary(self) -> None:
        """Propagate a semantic flush point to the owning tracer."""
        self.tracer.phase_boundary()
