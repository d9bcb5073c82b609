"""Span tracer and trace exporters: chrome JSON shape, summaries."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    default_tracer,
    metrics_summary,
    set_default_tracer,
    summarize_files,
    trace_summary,
    write_chrome_trace,
)
from repro.obs.tracing import GROUP_PID_STRIDE


def test_complete_and_instant_record_events():
    tr = Tracer()
    tr.complete("serve", 1.0, 0.5, pid=3, cat="io", bytes=4096)
    tr.instant("failure", 2.0, pid=1)
    assert len(tr) == 2
    ev = tr.events[0]
    assert (ev.name, ev.ph, ev.ts, ev.dur, ev.pid) == ("serve", "X", 1.0, 0.5, 3)
    assert ev.args == {"bytes": 4096}
    assert tr.events[1].ph == "i"


def test_begin_end_pairs_and_double_end_rejected():
    tr = Tracer()
    token = tr.begin("phase", 10.0, pid=2, idx=0)
    tr.end(token, 12.5)
    assert tr.events[0].dur == pytest.approx(2.5)
    assert tr.events[0].args == {"idx": 0}
    with pytest.raises(ValueError, match="already ended"):
        tr.end(token, 13.0)


def test_span_context_manager_uses_the_clock():
    ticks = iter([5.0, 8.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("work", pid=1):
        pass
    ev = tr.events[0]
    assert (ev.ts, ev.dur) == (5.0, 3.0)


def test_groups_reserve_disjoint_pid_ranges():
    tr = Tracer()
    a = tr.group("traditional")
    b = tr.group("shifted")
    assert b.base_pid - a.base_pid == GROUP_PID_STRIDE
    a.complete("io", 0.0, 1.0, pid=2)
    b.complete("io", 0.0, 1.0, pid=2)
    assert tr.events[0].pid == 2
    assert tr.events[1].pid == GROUP_PID_STRIDE + 2
    a.name_track(2, "disk 2")
    assert tr.process_names()[2] == "traditional: disk 2"


def test_chrome_trace_shape_and_microsecond_conversion():
    tr = Tracer()
    g = tr.group("mirror(3)")
    g.name_track(0, "disk 0")
    g.complete("read", 0.001, 0.002, pid=0, cat="io", tag="rebuild")
    g.instant("marker", 0.004, pid=0)
    doc = chrome_trace(tr)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["name"] for m in meta} == {"process_name", "process_sort_index"}
    assert any(m["args"] == {"name": "mirror(3): disk 0"} for m in meta)
    x = next(e for e in events if e["ph"] == "X")
    assert x["ts"] == pytest.approx(1000.0)  # seconds -> microseconds
    assert x["dur"] == pytest.approx(2000.0)
    assert x["args"]["tag"] == "rebuild"
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["s"] == "t" and "dur" not in inst


def test_write_chrome_trace_is_loadable_json(tmp_path):
    tr = Tracer()
    tr.complete("io", 0.0, 1.0)
    path = write_chrome_trace(tmp_path / "trace.json", tr)
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert doc == chrome_trace(tr)


def test_default_tracer_install_and_restore():
    tr = Tracer()
    old = set_default_tracer(tr)
    try:
        assert default_tracer() is tr
    finally:
        set_default_tracer(old)
    assert default_tracer() is old


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


def test_trace_summary_accounts_busy_time_per_track():
    tr = Tracer()
    tr.name_process(0, "disk 0")
    tr.complete("rebuild", 0.0, 1.0, pid=0)
    tr.complete("rebuild", 0.0, 0.5, pid=1)
    text = trace_summary(chrome_trace(tr))
    assert "2 spans" in text
    assert "rebuild" in text
    assert "disk 0" in text and "pid 1" in text


def test_trace_summary_empty():
    assert trace_summary({"traceEvents": []}) == "(no spans)"


def test_metrics_summary_lists_each_instrument():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("c").inc(3, kind="read")
    reg.gauge("g").set(2)
    reg.histogram("h", buckets=(1.0,)).observe(0.5)
    text = metrics_summary(reg.snapshot())
    assert "c{kind=read} = 3" in text
    assert "g = 2" in text
    assert "h: n=1" in text
    assert metrics_summary({}) == "(empty snapshot)"


def test_summarize_files_round_trip(tmp_path):
    from repro.obs import MetricsRegistry, write_metrics

    tr = Tracer()
    tr.complete("io", 0.0, 1.0)
    trace_path = write_chrome_trace(tmp_path / "t.json", tr)
    reg = MetricsRegistry()
    reg.counter("c").inc()
    metrics_path = write_metrics(tmp_path / "m.json", reg)
    text = summarize_files(metrics_path=metrics_path, trace_path=trace_path)
    assert "== metrics:" in text and "== trace:" in text
    assert "nothing to summarize" in summarize_files()
