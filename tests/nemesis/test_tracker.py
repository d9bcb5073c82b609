"""Fault timelines: lifecycle, queries, observability exports."""

from __future__ import annotations

import math

import pytest

from repro.disksim.faultplan import FaultPlan
from repro.nemesis import (
    FaultInterval,
    FaultTimeline,
    build_schedule,
    timeline_from_plan,
)
from repro.obs import MetricsRegistry


class _SpanSink:
    """Stand-in for a TraceGroup: records complete() calls."""

    def __init__(self) -> None:
        self.spans = []

    def complete(self, name, ts, dur, **kw):
        self.spans.append((name, ts, dur, kw))


# ----------------------------------------------------------------------
# recording and queries
# ----------------------------------------------------------------------


def test_open_interval_extends_to_infinity():
    tl = FaultTimeline()
    iv = tl.record(FaultInterval(0, "fail-slow", 2, 10.0, math.inf, 4.0))
    assert tl.active_at(1e12) == (iv,)
    assert tl.active_at(5.0) == ()


def test_duplicate_fault_id_is_rejected():
    tl = FaultTimeline()
    tl.record(FaultInterval(7, "disk-death", 0, 0.0, math.inf))
    with pytest.raises(ValueError, match="already recorded"):
        tl.record(FaultInterval(7, "disk-death", 1, 5.0, math.inf))


def test_margin_pads_the_attribution_window_both_ways():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "fail-slow", 1, 100.0, 200.0, 3.0))
    assert tl.active_at(90.0) == ()
    assert len(tl.active_at(90.0, margin=15.0)) == 1
    assert len(tl.active_at(210.0, margin=15.0)) == 1


def test_intervals_are_sorted_by_start_time():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "disk-death", 0, 50.0, 60.0))
    tl.record(FaultInterval(1, "fail-slow", 1, 10.0, 20.0))
    assert [iv.fault_id for iv in tl.intervals] == [1, 0]
    assert len(tl) == 2


# ----------------------------------------------------------------------
# schedule / plan projections
# ----------------------------------------------------------------------


def test_from_schedule_mirrors_every_scheduled_fault():
    sched = build_schedule(8, 86_400.0, seed=4)
    tl = FaultTimeline.from_schedule(sched)
    assert len(tl) == len(sched)
    for f, iv in zip(sched.faults, tl.intervals):
        assert (iv.fault_id, iv.kind, iv.disk) == (f.fault_id, f.kind, f.disk)
        assert (iv.start_s, iv.end_s, iv.magnitude) == (
            f.start_s,
            f.end_s,
            f.magnitude,
        )


def test_timeline_from_plan_projects_every_fault_class():
    plan = (
        FaultPlan(seed=1)
        .with_transients(rate=0.1)
        .with_lse_burst(3)
        .with_fail_slow(2, 4.0, start_s=10.0, end_s=99_999.0)
        .with_disk_failure(1, 500.0)
    )
    tl = timeline_from_plan(plan, horizon_s=1000.0)
    kinds = {iv.kind for iv in tl.intervals}
    assert kinds == {"disk-death", "fail-slow", "transient-burst", "lse-storm"}
    (fs,) = [iv for iv in tl.intervals if iv.kind == "fail-slow"]
    assert fs.end_s == 1000.0  # clamped to the horizon
    assert fs.magnitude == 4.0
    (death,) = [iv for iv in tl.intervals if iv.kind == "disk-death"]
    assert death.start_s == 500.0 and death.disk == 1


def test_timeline_from_plan_on_an_empty_plan_is_empty():
    assert len(timeline_from_plan(FaultPlan(seed=0), 100.0)) == 0


# ----------------------------------------------------------------------
# observability exports
# ----------------------------------------------------------------------


def test_export_spans_emits_one_span_per_interval():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "fail-slow", 3, 10.0, 40.0, 2.5))
    tl.record(FaultInterval(1, "disk-death", 0, 20.0, math.inf))
    sink = _SpanSink()
    with pytest.raises(ValueError, match="horizon_s"):
        tl.export_spans(sink)  # open interval, no clamp
    sink = _SpanSink()
    assert tl.export_spans(sink, horizon_s=100.0) == 2
    (name0, ts0, dur0, kw0), (name1, ts1, dur1, kw1) = sink.spans
    assert (name0, ts0, dur0) == ("fail-slow", 10.0, 30.0)
    assert kw0["disk"] == 3 and kw0["fault_id"] == 0 and kw0["cat"] == "nemesis"
    assert (name1, ts1, dur1) == ("disk-death", 20.0, 80.0)


def test_export_metrics_counts_intervals_per_kind():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "fail-slow", 1, 0.0, 10.0))
    tl.record(FaultInterval(1, "fail-slow", 2, 5.0, 15.0))
    tl.record(FaultInterval(2, "lse-storm", -1, 8.0, 9.0))
    reg = MetricsRegistry()
    tl.export_metrics(reg)
    counter = reg.counter("nemesis.faults_recorded_total")
    assert counter.value(kind="fail-slow") == 2.0
    assert counter.value(kind="lse-storm") == 1.0


def test_observe_gauge_tracks_the_active_count():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "fail-slow", 1, 0.0, 10.0))
    tl.record(FaultInterval(1, "lse-storm", -1, 5.0, 15.0))
    reg = MetricsRegistry()
    assert tl.observe_gauge(7.0, reg, arrangement="traditional") == 2
    assert reg.gauge("nemesis.active_faults").value(arrangement="traditional") == 2.0
    assert tl.observe_gauge(20.0, reg, arrangement="traditional") == 0


def test_to_dict_maps_open_end_to_none():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "disk-death", 2, 1.0, math.inf))
    d = tl.to_dict()
    assert d["schema_version"] == 1
    assert d["n_faults"] == 1
    assert d["faults"][0]["end_s"] is None

