"""Serialisation of traces and metrics snapshots.

Two trace formats:

* **chrome trace** — the ``chrome://tracing`` / Perfetto "Trace Event
  Format" JSON object (``{"traceEvents": [...]}``).  Timestamps are
  converted from simulated seconds to the format's microseconds, and
  each named pid gets a ``process_name`` metadata record so tracks read
  "mirror(5)x12: disk 3" instead of bare numbers.  End-of-run export
  of a buffered tracer.
* **streaming JSONL** (:class:`JsonlTraceSink`) — one chrome-format
  record per line, written incrementally as the tracer's bounded
  buffer drains.  The file opens with ``[`` and every record carries a
  trailing comma, which is exactly the tolerant "JSON Array Format"
  trace viewers accept (missing ``]`` and trailing commas are fine),
  so a stream interrupted at any instant — even mid-line — still loads
  in ``chrome://tracing``/Perfetto and still parses with
  :func:`load_streaming_trace`, which recovers every complete record
  before the cut.

Per-request spans are :class:`IoSpan` rows: the engine buffers the
completed :class:`~repro.disksim.request.IORequest` itself and this
module turns it into a span only when the span is exported — the sink
renders a whole flush of rows through one line template, and the
buffered exporters read the rows through the same interface as a
:class:`~repro.obs.tracing.TraceEvent`.  This module is the one place
that knows which request fields an io span carries.

Metrics snapshots (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`)
are already plain data; :func:`write_metrics` just
adds the file framing, and the round-trip is exact — a snapshot
written, read back and merged into a fresh registry reproduces every
counter (there is a test pinning that).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .tracing import TraceEvent, Tracer

__all__ = [
    "IoSpan",
    "chrome_trace",
    "write_chrome_trace",
    "JsonlTraceSink",
    "StreamedTrace",
    "load_streaming_trace",
    "write_metrics",
]

_S_TO_US = 1e6


class IoSpan:
    """One completed I/O request as a trace row.

    The row holds the request itself, not a copy of its fields:
    recording a span costs one small allocation, and the span's
    columns — disk, start, finish, kind, tag, attempt, priority, size
    and error kind — are read from the request when the row is
    exported.  The read interface matches
    :class:`~repro.obs.tracing.TraceEvent` (``name``, ``ph``, ``ts``,
    ``dur``, ``pid``, ``tid``, ``cat``, ``args``), so buffered
    tracers, :func:`chrome_trace` and ``repro obs summary`` treat rows
    and events alike.

    ``base_pid`` is the owning :class:`~repro.obs.tracing.TraceGroup`'s
    pid offset; the row's track is that plus the request's disk.
    """

    __slots__ = ("base_pid", "request")

    ph = "X"
    tid = 0
    cat = "io"

    def __init__(self, base_pid: int, request) -> None:
        self.base_pid = base_pid
        self.request = request

    @property
    def name(self) -> str:
        r = self.request
        return r.tag or r.kind.value

    @property
    def ts(self) -> float:
        return self.request.start_time

    @property
    def dur(self) -> float:
        r = self.request
        return r.finish_time - r.start_time

    @property
    def pid(self) -> int:
        return self.base_pid + self.request.disk

    @property
    def args(self) -> dict:
        r = self.request
        args = {
            "kind": r.kind.value,
            "tag": r.tag,
            "attempt": r.attempt,
            "priority": r.priority,
            "bytes": r.size,
        }
        if r.error:
            args["error"] = r.error_kind
        return args


#: an :class:`IoSpan`'s streamed line, byte-identical to
#: ``json.dumps(_chrome_record(row)) + ",\n"``.  The string slots take
#: JSON-encoded strings, the number slots exact ints and finite floats
#: (whose ``repr`` is what ``json.dumps`` writes), and the last slot
#: the ``"error"`` member or nothing.
_IO_LINE = (
    '{"name": %s, "ph": "X", "ts": %r, "pid": %r, "tid": 0, "dur": %r,'
    ' "cat": "io", "args": {"kind": %s, "tag": %s, "attempt": %r,'
    ' "priority": %r, "bytes": %r%s}},\n'
)


def _render_lines(events) -> list[str]:
    """Streamed lines for a flush: rows by template, events by ``json``.

    Each distinct string (kind, tag, error kind) is JSON-encoded once
    per flush.  A row with a number whose ``repr`` is not what
    ``json.dumps`` writes — a non-finite float, a float or int
    subclass — takes the generic path, so every line is exactly
    ``json.dumps(_chrome_record(ev)) + ",\n"``.
    """
    dumps = json.dumps
    encoded: dict = {}
    errors: dict = {}
    lines: list[str] = []
    append = lines.append
    for ev in events:
        if ev.__class__ is IoSpan:
            r = ev.request
            t0 = r.start_time
            t1 = r.finish_time
            pid = ev.base_pid + r.disk
            attempt = r.attempt
            priority = r.priority
            size = r.size
            if (
                float is t0.__class__ is t1.__class__
                and int is pid.__class__ is attempt.__class__
                is priority.__class__ is size.__class__
            ):
                ts = t0 * _S_TO_US
                dur = (t1 - t0) * _S_TO_US
                if ts - ts == 0.0 == dur - dur:  # both finite
                    kind = r.kind
                    kind_s = encoded.get(kind)
                    if kind_s is None:
                        kind_s = encoded[kind] = dumps(kind.value)
                    tag = r.tag
                    tag_s = encoded.get(tag)
                    if tag_s is None:
                        tag_s = encoded[tag] = dumps(tag)
                    error_s = ""
                    if r.error:
                        error = r.error_kind
                        error_s = errors.get(error)
                        if error_s is None:
                            error_s = errors[error] = ', "error": ' + dumps(error)
                    append(
                        _IO_LINE
                        % (tag_s if tag else kind_s, ts, pid, dur, kind_s,
                           tag_s, attempt, priority, size, error_s)
                    )
                    continue
        append(dumps(_chrome_record(ev)) + ",\n")
    return lines


def _chrome_record(ev: TraceEvent) -> dict:
    """One event as a Trace Event Format record (µs timestamps)."""
    rec = {
        "name": ev.name,
        "ph": ev.ph,
        "ts": ev.ts * _S_TO_US,
        "pid": ev.pid,
        "tid": ev.tid,
    }
    if ev.ph == "X":
        rec["dur"] = ev.dur * _S_TO_US
    if ev.cat:
        rec["cat"] = ev.cat
    if ev.args:
        rec["args"] = ev.args
    return rec


def _name_records(names: dict[int, str]) -> list[dict]:
    """``process_name`` + ``process_sort_index`` metadata for named pids.

    The sort index keeps tracks in disk order, not first-event order.
    """
    records: list[dict] = []
    for pid, name in sorted(names.items()):
        records.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        records.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    return records


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's events as a Trace Event Format object (plain data).

    The top-level ``metadata`` carries the tracer's sampling header
    (rate, sampled categories, drop count), so a downsampled export
    declares itself instead of passing for a quiet run.
    """
    events = _name_records(tracer.process_names())
    events.extend(_chrome_record(ev) for ev in tracer.events)
    metadata = dict(tracer.header_meta())
    metadata["dropped_events"] = tracer.dropped_events
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": metadata,
    }


def write_chrome_trace(path, tracer: Tracer) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer)) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# streaming sink: incremental, bounded-memory, viewer-loadable
# ----------------------------------------------------------------------


class JsonlTraceSink:
    """Incremental line-per-record trace writer (chrome-loadable).

    Owns the file only; *when* to write is the tracer's business
    (watermark, phase boundary, close — see
    :class:`repro.obs.tracing.Tracer`).  The first flush lands a
    ``trace_header`` metadata record carrying the sampling rate and
    buffer watermark; track names stream in as simulations register
    them.  Bytes hit the OS on every :meth:`flush`, so a reader (or a
    crashed run's post-mortem) sees every completed flush.

    ``close`` is idempotent and counts as a final flush.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write("[\n")
        #: event records written (excludes header/name metadata)
        self.events_written = 0
        self.closed = False

    def _write_record(self, rec: dict) -> None:
        self._fh.write(json.dumps(rec))
        self._fh.write(",\n")

    def write_header(self, meta: dict) -> None:
        """The stream's first record: format + sampling provenance."""
        self._write_record(
            {"name": "trace_header", "ph": "M", "pid": 0, "tid": 0, "args": meta}
        )

    def write_process_names(self, names: dict[int, str]) -> None:
        for rec in _name_records(names):
            self._write_record(rec)

    def write_events(self, events) -> None:
        """Render a flush's events and rows and write them in one call."""
        lines = _render_lines(events)
        self._fh.write("".join(lines))
        self.events_written += len(lines)

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._fh.flush()
        self._fh.close()


@dataclass
class StreamedTrace:
    """A parsed :class:`JsonlTraceSink` file: header, names, events."""

    header: dict = field(default_factory=dict)
    process_names: dict[int, str] = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)

    def to_chrome(self) -> dict:
        """Re-frame as a Trace Event Format object (for summaries/tools)."""
        records = _name_records(self.process_names)
        records.extend(_chrome_record(ev) for ev in self.events)
        return {
            "traceEvents": records,
            "displayTimeUnit": "ms",
            "metadata": dict(self.header),
        }


def load_streaming_trace(path) -> StreamedTrace:
    """Parse a :class:`JsonlTraceSink` file, tolerating an abrupt stop.

    A run killed mid-write leaves a torn final line; parsing stops at
    the first undecodable line and everything before it — necessarily
    complete records — is returned.  Timestamps come back in seconds
    (the sink wrote microseconds).
    """
    out = StreamedTrace()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip().rstrip(",")
            if not line or line in ("[", "]"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from an abrupt stop — keep the prefix
            if rec.get("ph") == "M":
                if rec.get("name") == "trace_header":
                    out.header = rec.get("args", {})
                elif rec.get("name") == "process_name":
                    out.process_names[rec["pid"]] = rec["args"]["name"]
                continue
            out.events.append(
                TraceEvent(
                    name=rec["name"],
                    ph=rec["ph"],
                    ts=rec["ts"] / _S_TO_US,
                    dur=rec.get("dur", 0.0) / _S_TO_US,
                    pid=rec["pid"],
                    tid=rec["tid"],
                    cat=rec.get("cat", ""),
                    args=rec.get("args", {}),
                )
            )
    return out


def write_metrics(path, registry_or_snapshot) -> Path:
    """Write a registry (or a prepared snapshot) as JSON; returns the path."""
    snap = registry_or_snapshot
    if hasattr(snap, "snapshot"):
        snap = snap.snapshot()
    path = Path(path)
    path.write_text(json.dumps(snap, indent=2) + "\n", encoding="utf-8")
    return path

