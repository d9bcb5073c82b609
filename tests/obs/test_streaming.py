"""Streaming observability: JSONL sink, span sampling, live /metrics.

The contract under test: a streamed trace holds at most
``buffer_watermark`` events in memory no matter how long the campaign
runs, the file on disk is a loadable trace at every instant (including
after an abrupt kill mid-line), sampling never drops the
controller/phase skeleton, and the Prometheus endpoint serves a
parseable exposition of the live registry and shuts down cleanly.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    MetricsServer,
    Tracer,
    chrome_trace,
    load_streaming_trace,
    prometheus_text,
    resolve_sample_rate,
    scoped_registry,
    set_obs_enabled,
)


@pytest.fixture
def registry():
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            yield reg
    finally:
        set_obs_enabled(old)


def _streaming_tracer(tmp_path, watermark=4, **kwargs):
    sink = JsonlTraceSink(tmp_path / "trace.jsonl")
    return Tracer(sink=sink, buffer_watermark=watermark, **kwargs), sink


# ----------------------------------------------------------------------
# bounded buffer: watermark and phase-boundary flushes
# ----------------------------------------------------------------------


def test_watermark_flush_bounds_the_buffer(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=4)
    peak = 0
    for i in range(11):
        tr.complete("io", float(i), 0.5, pid=i % 3)
        peak = max(peak, len(tr))
    assert peak <= 4  # never exceeds the watermark
    assert sink.events_written == 8  # two watermark flushes happened
    tr.close()
    loaded = load_streaming_trace(sink.path)
    assert [ev.ts for ev in loaded.events] == [float(i) for i in range(11)]
    assert loaded.header["buffer_watermark"] == 4


def test_phase_boundary_flushes_below_the_watermark(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=100)
    tr.complete("io", 0.0, 1.0)
    tr.complete("io", 1.0, 1.0)
    assert sink.events_written == 0
    tr.phase_boundary()
    assert sink.events_written == 2 and len(tr) == 0
    # the partial file is already a loadable trace
    assert len(load_streaming_trace(sink.path).events) == 2


def test_group_phase_boundary_reaches_the_tracer(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=100)
    group = tr.group("mirror(3)")
    group.complete("rebuild.phase", 0.0, 1.0, cat="rebuild")
    group.phase_boundary()
    assert sink.events_written == 1


def test_track_names_stream_as_they_register(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=100)
    g = tr.group("shifted")
    g.name_track(0, "disk 0")
    g.complete("io", 0.0, 1.0, pid=0)
    tr.flush()
    g.name_track(1, "disk 1")  # registered after the first flush
    g.complete("io", 1.0, 1.0, pid=1)
    tr.close()
    loaded = load_streaming_trace(sink.path)
    assert set(loaded.process_names.values()) == {"shifted: disk 0", "shifted: disk 1"}


# ----------------------------------------------------------------------
# close: final flush, idempotence
# ----------------------------------------------------------------------


def test_close_flushes_the_tail_and_is_idempotent(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=100)
    tr.complete("io", 0.0, 1.0)
    tr.phase_boundary()
    # events recorded after the final phase flush must still land
    token = tr.begin("late", 2.0)
    tr.end(token, 3.0)
    tr.close()
    tr.close()  # repeated close is a no-op, not an error
    assert sink.closed
    loaded = load_streaming_trace(sink.path)
    assert [ev.name for ev in loaded.events] == ["io", "late"]


def test_empty_streamed_trace_still_carries_a_header(tmp_path):
    tr, sink = _streaming_tracer(tmp_path)
    tr.close()
    loaded = load_streaming_trace(sink.path)
    assert loaded.events == []
    assert loaded.header["format"] == "repro-trace/1"


# ----------------------------------------------------------------------
# abrupt-stop recovery and viewer-loadability
# ----------------------------------------------------------------------


def test_truncated_file_recovers_complete_prefix(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=2)
    for i in range(6):
        tr.complete("io", float(i), 0.5)
    tr.flush()
    sink.close()  # simulate a kill: no tracer.close() bookkeeping
    raw = sink.path.read_text()
    torn = raw[: len(raw) - 17]  # cut mid-record
    sink.path.write_text(torn)
    loaded = load_streaming_trace(sink.path)
    assert 0 < len(loaded.events) < 6
    assert [ev.ts for ev in loaded.events] == [float(i) for i in range(len(loaded.events))]


def test_streamed_lines_are_chrome_array_format(tmp_path):
    """First line ``[``, every record a JSON object with trailing comma —
    the tolerant chrome://tracing array format, parseable line-by-line."""
    tr, sink = _streaming_tracer(tmp_path)
    tr.complete("read", 0.001, 0.002, pid=1, cat="io", bytes=8)
    tr.close()
    lines = sink.path.read_text().splitlines()
    assert lines[0] == "["
    records = [json.loads(line.rstrip(",")) for line in lines[1:]]
    assert records[0]["name"] == "trace_header"
    span = records[-1]
    assert span["ts"] == pytest.approx(1000.0)  # seconds -> microseconds
    assert span["dur"] == pytest.approx(2000.0)
    assert span["args"]["bytes"] == 8


# ----------------------------------------------------------------------
# span sampling
# ----------------------------------------------------------------------


def test_sample_zero_keeps_controller_and_phase_spans(tmp_path):
    tr, sink = _streaming_tracer(tmp_path, watermark=100, sample=0.0)
    for i in range(20):
        tr.complete("read", float(i), 0.5, cat="io")
    tr.complete("rebuild.phase", 0.0, 10.0, cat="rebuild")
    tr.instant("second-failure", 5.0)
    tr.close()
    loaded = load_streaming_trace(sink.path)
    assert [ev.name for ev in loaded.events] == ["rebuild.phase", "second-failure"]
    assert tr.dropped_events == 20
    assert loaded.header["sample_rate"] == 0.0


def test_sampling_is_deterministic_per_seed():
    def kept(seed):
        tr = Tracer(sample=0.5, sample_seed=seed)
        for i in range(200):
            tr.complete("read", float(i), 0.5, cat="io")
        return [ev.ts for ev in tr.events]

    assert kept(7) == kept(7)
    assert 0 < len(kept(7)) < 200


def test_chrome_trace_header_stays_honest_about_sampling():
    tr = Tracer(sample=0.25, sample_seed=3)
    for i in range(100):
        tr.complete("read", float(i), 0.5, cat="io")
    doc = chrome_trace(tr)
    meta = doc["metadata"]
    assert meta["sample_rate"] == 0.25
    assert meta["dropped_events"] == tr.dropped_events > 0


def test_resolve_sample_rate_env_and_validation(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_SAMPLE", "0.125")
    assert resolve_sample_rate() == 0.125
    assert resolve_sample_rate(1.0) == 1.0  # explicit beats env
    with pytest.raises(ValueError, match="sample rate"):
        resolve_sample_rate(1.5)


def test_buffer_watermark_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_OBS_BUFFER", "2")
    tr, sink = _streaming_tracer(tmp_path, watermark=None)
    assert tr.buffer_watermark == 2


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def test_prometheus_text_renders_all_three_kinds():
    reg = MetricsRegistry()
    reg.counter("sim.requests", "completed I/O requests").inc(3, kind="read")
    reg.gauge("pool.n_workers").set(4)
    reg.histogram("sim.request_latency_s", buckets=(0.1, 1.0)).observe(0.5)
    reg.histogram("sim.request_latency_s", buckets=(0.1, 1.0)).observe(5.0)
    text = prometheus_text(reg.snapshot())
    assert "# TYPE sim_requests counter" in text
    assert 'sim_requests{kind="read"} 3.0' in text
    assert "pool_n_workers 4.0" in text
    # cumulative buckets with a +Inf terminator matching _count
    assert 'sim_request_latency_s_bucket{le="0.1"} 0' in text
    assert 'sim_request_latency_s_bucket{le="1.0"} 1' in text
    assert 'sim_request_latency_s_bucket{le="+Inf"} 2' in text
    assert "sim_request_latency_s_count 2" in text
    assert "sim_request_latency_s_sum 5.5" in text


def test_prometheus_text_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c").inc(1, tag='say "hi"\nback\\slash')
    text = prometheus_text(reg.snapshot())
    assert r'c{tag="say \"hi\"\nback\\slash"} 1.0' in text


def test_prometheus_text_empty_snapshot_is_valid():
    assert prometheus_text({}) == ""


def test_metrics_server_serves_and_shuts_down(registry):
    registry.counter("sweep.points_completed").inc(2)
    with MetricsServer(port=0) as srv:
        assert srv.port > 0
        body = urllib.request.urlopen(f"{srv.url}/metrics", timeout=5).read().decode()
        assert "sweep_points_completed 2.0" in body
        index = urllib.request.urlopen(srv.url + "/", timeout=5)
        assert index.status == 200
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(srv.url + "/nope", timeout=5)
        assert err.value.code == 404
    srv.close()  # second close after context exit: still fine
    assert srv.closed


def test_metrics_server_scrapes_the_provider_live():
    reg = MetricsRegistry()
    with MetricsServer(port=0, registry_provider=lambda: reg) as srv:
        first = urllib.request.urlopen(f"{srv.url}/metrics", timeout=5).read().decode()
        reg.counter("sim.requests").inc(7)
        second = urllib.request.urlopen(f"{srv.url}/metrics", timeout=5).read().decode()
    assert "sim_requests" not in first
    assert "sim_requests 7.0" in second


# ----------------------------------------------------------------------
# the acceptance contract: a campaign's tracer memory is bounded
# ----------------------------------------------------------------------


class _WatchedTracer(Tracer):
    """A tracer that remembers its peak buffered-event count and how
    many engine io rows passed its recording gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak_buffered = 0
        self.io_recorded = 0

    def _record(self, ev):
        super()._record(ev)
        self.peak_buffered = max(self.peak_buffered, len(self.events))
        if ev.cat == "io":
            self.io_recorded += 1


def test_rebuild_under_streaming_tracer_holds_the_watermark(tmp_path):
    from repro.core.layouts import shifted_mirror
    from repro.raidsim.controller import RaidController

    sink = JsonlTraceSink(tmp_path / "rebuild.jsonl")
    tracer = _WatchedTracer(sink=sink, buffer_watermark=32)
    ctrl = RaidController(
        shifted_mirror(5), n_stripes=24, payload_bytes=8, tracer=tracer
    )
    ctrl.rebuild((0,), verify=False)
    tracer.close()
    assert tracer.total_events > 32  # the run genuinely overflowed the buffer
    # the bound covers the engine's per-request spans, not just phases
    assert tracer.io_recorded > 32
    assert tracer.peak_buffered <= 32
    loaded = load_streaming_trace(sink.path)
    assert len(loaded.events) == tracer.total_events
    names = {ev.name for ev in loaded.events}
    assert "rebuild.phase" in names  # phase skeleton survived
    assert any(v.startswith("shifted-mirror") for v in loaded.process_names.values())


def test_sweep_merges_worker_metrics_as_points_complete(registry):
    from repro.raidsim.campaign import compare_sweep

    sweep = compare_sweep("mirror", 3, n_seeds=3, n_stripes=4, jobs=1)
    assert len(sweep) == 3
    assert registry.counter("sweep.points_completed").value() == 3
    # the merged registry is servable as a live exposition
    text = prometheus_text(registry.snapshot())
    assert "sweep_points_completed 3.0" in text
    assert "sim_requests" in text
