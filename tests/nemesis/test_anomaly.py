"""Anomaly detection and attribution against the fault timeline."""

from __future__ import annotations

import pytest

from repro.nemesis import (
    AnomalyDetector,
    FaultInterval,
    FaultTimeline,
    MetricSpec,
)
from repro.obs import MetricsRegistry, RollingBaseline


def _detector(timeline=None, registry=None, **spec_kw):
    tl = timeline if timeline is not None else FaultTimeline()
    spec = MetricSpec(
        "lat", direction="high", rel_threshold=0.5, z_threshold=4.0,
        window=16, min_samples=4, **spec_kw,
    )
    reg = registry if registry is not None else MetricsRegistry()
    return AnomalyDetector(tl, metrics=(spec,), registry=reg), tl


def _warm(det, n=8, value=1.0, t0=0.0):
    for k in range(n):
        det.observe(t0 + k, "lat", value)


def test_metric_spec_validation():
    with pytest.raises(ValueError, match="direction"):
        MetricSpec("x", direction="sideways")
    with pytest.raises(ValueError, match="rel_threshold"):
        MetricSpec("x", rel_threshold=0.0)


def test_unknown_metric_is_rejected():
    det, _ = _detector()
    with pytest.raises(ValueError, match="not on the watchlist"):
        det.observe(0.0, "nope", 1.0)
    det = AnomalyDetector(FaultTimeline(), metrics=(MetricSpec("extra"),))
    assert det.observe(0.0, "extra", 1.0) is None


def test_excursion_during_a_fault_is_attributed():
    tl = FaultTimeline()
    tl.record(FaultInterval(5, "fail-slow", 2, 100.0, 200.0, 4.0))
    det, _ = _detector(tl)
    _warm(det, t0=0.0)
    exc = det.observe(150.0, "lat", 10.0)
    assert exc is not None and exc.explained
    assert exc.attributed_to == (5,)
    assert exc.attributed_kinds == ("fail-slow",)
    rep = det.report()
    assert rep.n_excursions == 1
    assert rep.attribution_coverage == 1.0
    rep.assert_invariant()  # must not raise


def test_excursion_with_no_active_fault_fails_the_invariant():
    det, _ = _detector()
    _warm(det)
    exc = det.observe(50.0, "lat", 10.0)
    assert exc is not None and not exc.explained
    rep = det.report()
    assert rep.unexplained == (exc,)
    assert rep.attribution_coverage == 0.0
    with pytest.raises(AssertionError, match="overlap no active fault"):
        rep.assert_invariant()


def test_fault_time_samples_never_grow_the_baseline():
    """A fault must not normalise its own damage."""
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "fail-slow", 1, 100.0, 1e9, 8.0))
    det, _ = _detector(tl)
    _warm(det, t0=0.0)  # quiet era: baseline at 1.0
    before = det.baseline("lat").mean
    for k in range(20):
        det.observe(200.0 + k, "lat", 1.2)  # elevated but not an excursion
    assert det.baseline("lat").mean == before
    # damage past the threshold still flags, even after 20 sick samples
    assert det.observe(300.0, "lat", 10.0) is not None


def test_quiet_override_gates_baseline_growth():
    det, _ = _detector()
    for k in range(8):
        det.observe(float(k), "lat", 1.0, quiet=False)
    assert not det.baseline("lat").ready
    rep = det.report()
    assert rep.n_samples == 8 and rep.n_quiet_samples == 0


def test_low_direction_flags_throughput_collapse():
    tl = FaultTimeline()
    tl.record(FaultInterval(0, "disk-death", 3, 90.0, 1e9))
    spec = MetricSpec("tput", direction="low", window=16, min_samples=4)
    det = AnomalyDetector(tl, metrics=(spec,), registry=MetricsRegistry())
    for k in range(8):
        det.observe(float(k), "tput", 100.0)
    assert det.observe(50.0, "tput", 99.0) is None
    exc = det.observe(100.0, "tput", 5.0)
    assert exc is not None and exc.attributed_kinds == ("disk-death",)


def test_detector_publishes_excursion_counters():
    reg = MetricsRegistry()
    det, _ = _detector(registry=reg)
    _warm(det)
    det.observe(50.0, "lat", 10.0)  # unexplained excursion
    assert reg.counter("nemesis.excursions_total").value(metric="lat") == 1.0
    assert (
        reg.counter("nemesis.unexplained_excursions_total").value(metric="lat")
        == 1.0
    )


def test_empty_report_has_full_coverage():
    det, _ = _detector()
    rep = det.report()
    assert rep.n_excursions == 0
    assert rep.attribution_coverage == 1.0
    rep.assert_invariant()
    d = rep.to_dict()
    assert d["n_unexplained"] == 0 and d["excursions"] == []


def test_nan_sample_abstains_without_feeding_the_baseline():
    """NaN = "nothing measured": no excursion, no baseline growth."""
    det, _ = _detector()
    _warm(det)
    before_mean = det._baselines["lat"].mean
    assert det.observe(50.0, "lat", float("nan")) is None
    assert det._baselines["lat"].mean == before_mean
    rep = det.report()
    assert rep.n_excursions == 0
    rep.assert_invariant()


def test_detector_baselines_each_metric_over_its_spec_window():
    spec = MetricSpec("m", window=12, min_samples=3)
    det = AnomalyDetector(FaultTimeline(), metrics=(spec,), registry=MetricsRegistry())
    baseline = det.baseline("m")
    assert isinstance(baseline, RollingBaseline)
    assert (baseline.window, baseline.min_samples) == (12, 3)
