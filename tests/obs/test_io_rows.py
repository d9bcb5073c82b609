"""Engine io rows: the span they stand for, and the line they stream as.

A completed request is buffered as an :class:`~repro.obs.export.IoSpan`
row and rendered only at export.  Two contracts are pinned here:

* a row reads exactly like the :class:`~repro.obs.tracing.TraceEvent`
  the engine used to build per completion (same name, timestamps,
  track and args, in the same order);
* the sink's line template writes exactly
  ``json.dumps(_chrome_record(row)) + ",\\n"`` — for awkward tags,
  every error kind, numbers across their ranges, and floats from
  subnormals to non-finite values (which take ``json``'s own path).
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.request import IOKind, IORequest
from repro.obs import JsonlTraceSink, Tracer, load_streaming_trace
from repro.obs.export import IoSpan, _chrome_record, _render_lines
from repro.obs.tracing import TraceEvent

ERROR_KINDS = ("", "lse", "transient", "disk-failed")

_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_tags = st.one_of(
    st.sampled_from(["", "rebuild", 'say "hi"', "back\\slash", "tab\there",
                     "réplica", "盘", " ", "\x00"]),
    st.text(),
)


@st.composite
def requests(draw) -> IORequest:
    error_kind = draw(st.sampled_from(ERROR_KINDS))
    r = IORequest(
        disk=draw(st.integers(0, 999)),
        offset=draw(st.integers(0, 2**40)),
        size=draw(st.integers(1, 2**63)),
        kind=draw(st.sampled_from(list(IOKind))),
        priority=draw(st.integers(-(2**31), 2**31)),
        tag=draw(_tags),
        attempt=draw(st.integers(0, 2**16)),
        error=bool(error_kind) or draw(st.booleans()),
        error_kind=error_kind,
    )
    r.start_time = draw(_floats)
    r.finish_time = draw(_floats)
    return r


def _reference_event(base_pid: int, r: IORequest) -> TraceEvent:
    """The span the engine recorded per completion before rows."""
    args = {
        "kind": r.kind.value,
        "tag": r.tag,
        "attempt": r.attempt,
        "priority": r.priority,
        "bytes": r.size,
    }
    if r.error:
        args["error"] = r.error_kind
    return TraceEvent(
        r.tag or r.kind.value,
        "X",
        r.start_time,
        r.finish_time - r.start_time,
        base_pid + r.disk,
        0,
        "io",
        args,
    )


def _json_line(ev) -> str:
    return json.dumps(_chrome_record(ev)) + ",\n"


@given(r=requests(), base_pid=st.sampled_from([0, 1000, 7000]))
@settings(max_examples=400, deadline=None)
def test_template_line_is_the_json_line(r, base_pid):
    row = IoSpan(base_pid, r)
    assert _render_lines([row]) == [_json_line(row)]
    assert _json_line(row) == _json_line(_reference_event(base_pid, r))


@given(reqs=st.lists(requests(), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_a_flush_renders_rows_and_events_in_order(reqs):
    """Rows interleaved with ordinary events, sharing one string cache."""
    events = []
    for i, r in enumerate(reqs):
        events.append(IoSpan(1000, r))
        if i % 3 == 0:
            events.append(TraceEvent("rebuild.phase", "X", 1.5, 2.0, 7, 0,
                                     "rebuild", {"phase": i}))
    assert _render_lines(events) == [_json_line(ev) for ev in events]


def _finished(**fields) -> IORequest:
    r = IORequest(disk=2, offset=0, size=4096, kind=IOKind.READ, tag="user")
    r.start_time, r.finish_time = 0.25, 0.5
    for name, value in fields.items():
        setattr(r, name, value)
    return r


def test_numbers_repr_would_misrender_take_the_json_path():
    """Non-finite floats and number subclasses: ``repr`` differs from
    ``json.dumps`` for each, so each must fall back and still match."""
    cases = [
        _finished(start_time=float("inf"), finish_time=float("inf")),
        _finished(finish_time=float("nan")),
        _finished(start_time=np.float64(0.125)),
        _finished(attempt=True),
        _finished(priority=False),
    ]
    for r in cases:
        row = IoSpan(0, r)
        assert _render_lines([row]) == [_json_line(row)]
    assert '"ts": Infinity' in _render_lines([IoSpan(0, cases[0])])[0]


def test_row_reads_like_the_event_it_replaces():
    r = _finished(error=True, error_kind="lse", attempt=2, priority=0)
    row, ev = IoSpan(3000, r), _reference_event(3000, r)
    for field in ("name", "ph", "ts", "dur", "pid", "tid", "cat", "args"):
        assert getattr(row, field) == getattr(ev, field), field


def test_rows_pass_the_sampling_gate_like_events():
    """A sampled tracer keeps the same rows as it would keep events."""
    reqs = [_finished(disk=i % 4, tag=f"t{i}") for i in range(200)]

    def kept(make):
        tracer = Tracer(sample=0.5, sample_seed=11)
        for r in reqs:
            tracer._record(make(r))
        return [_json_line(ev) for ev in tracer.events], tracer.dropped_events

    rows, rows_dropped = kept(lambda r: IoSpan(0, r))
    events, events_dropped = kept(lambda r: _reference_event(0, r))
    assert rows == events and rows_dropped == events_dropped > 0


def test_streamed_rows_reload_as_events(tmp_path):
    sink = JsonlTraceSink(tmp_path / "rows.jsonl")
    tracer = Tracer(sink=sink, buffer_watermark=3)
    reqs = [_finished(disk=i, tag="" if i % 2 else "rebuild") for i in range(7)]
    for r in reqs:
        tracer._record(IoSpan(1000, r))
    tracer.close()
    assert sink.events_written == 7
    loaded = load_streaming_trace(sink.path).events
    assert [(ev.name, ev.pid, ev.args) for ev in loaded] == [
        (row.name, row.pid, row.args) for row in (IoSpan(1000, r) for r in reqs)
    ]
