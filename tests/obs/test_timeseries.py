"""The simulated-time flight recorder: windows, merge, gating.

The contracts under test: samples fold into fixed-width simulated-time
windows with exact count/sum/min/max and bucketed quantiles, the ring
buffer bounds memory at ``horizon`` windows, merging snapshots is
deterministic and order-preserving (the jobs=1 vs jobs=N hinge), and
``REPRO_OBS=0`` makes an installed recorder invisible to components.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    TimelineRecorder,
    bucket_quantile,
    default_recorder,
    scoped_recorder,
    scoped_registry,
    set_default_recorder,
    set_obs_enabled,
    window_mean,
)


def _recorder(**kwargs) -> TimelineRecorder:
    kwargs.setdefault("registry", False)
    return TimelineRecorder(**kwargs)


# ----------------------------------------------------------------------
# window folding
# ----------------------------------------------------------------------


def test_samples_fold_into_fixed_width_windows():
    rec = _recorder(window_s=1.0)
    s = rec.series("lat")
    for t, v in ((0.2, 1.0), (0.7, 3.0), (1.1, 5.0), (2.9, 7.0)):
        s.observe(t, v)
    wins = s.windows()
    assert [w["w"] for w in wins] == [0, 1, 2]
    assert wins[0]["count"] == 2
    assert wins[0]["sum"] == 4.0
    assert wins[0]["min"] == 1.0 and wins[0]["max"] == 3.0
    assert window_mean(wins[0]) == 2.0


def test_late_samples_clamp_into_the_open_window():
    """Completion order can lag the clock; a late sample lands in the
    open window instead of reopening a closed one."""
    rec = _recorder(window_s=1.0)
    s = rec.series("lat")
    s.observe(5.5, 1.0)
    s.observe(0.5, 9.0)  # earlier than the open window: clamps
    wins = s.windows()
    assert [w["w"] for w in wins] == [5]
    assert wins[0]["count"] == 2 and wins[0]["max"] == 9.0


def test_non_finite_samples_are_skipped():
    rec = _recorder(window_s=1.0)
    s = rec.series("lat")
    s.observe(0.1, 1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        s.observe(0.2, bad)
    assert s.windows()[0]["count"] == 1


def test_advance_to_closes_elapsed_windows_and_runs_samplers():
    rec = _recorder(window_s=1.0)
    depth = iter([3.0, 7.0])
    rec.sample("qd", lambda: next(depth, None))
    rec.advance_to(0.5)
    rec.advance_to(1.5)  # closes window 0
    snap = rec.snapshot()
    wins = snap["series"]["qd"]["windows"]
    assert [w["w"] for w in wins] == [0, 1]
    assert wins[0]["sum"] == 3.0 and wins[1]["sum"] == 7.0


def test_horizon_bounds_closed_windows():
    rec = _recorder(window_s=1.0, horizon=4)
    s = rec.series("lat")
    for w in range(10):
        s.observe(w + 0.5, 1.0)
    rec.advance_to(100.0)
    wins = s.windows()
    assert len(wins) == 4
    assert [w["w"] for w in wins] == [6, 7, 8, 9]


def test_window_quantile_uses_bucket_upper_bounds():
    rec = _recorder(window_s=1.0)
    s = rec.series("lat")
    for v in (0.003, 0.004, 0.040):
        s.observe(0.1, v)
    win = s.windows()[0]
    # p50 covers rank 1.5 -> second sample's bucket (bound 0.1 ms * 2**5.5)
    assert bucket_quantile(win, 0.5, DEFAULT_BUCKETS) == DEFAULT_BUCKETS[11]
    assert DEFAULT_BUCKETS[10] < 0.004 <= DEFAULT_BUCKETS[11]
    # p99 lands in 0.040's bucket (bound 51.2 ms) but clamps to the max
    assert bucket_quantile(win, 0.99, DEFAULT_BUCKETS) == pytest.approx(0.040)
    assert bucket_quantile({"count": 0}, 0.5, DEFAULT_BUCKETS) != \
        bucket_quantile({"count": 0}, 0.5, DEFAULT_BUCKETS)  # NaN


def test_recorder_validation():
    with pytest.raises(ValueError, match="window_s"):
        _recorder(window_s=0.0)
    with pytest.raises(ValueError, match="horizon"):
        _recorder(horizon=0)


# ----------------------------------------------------------------------
# snapshot / merge determinism
# ----------------------------------------------------------------------


def _feed(rec: TimelineRecorder, samples) -> None:
    s = rec.series("lat", tenant="a")
    for t, v in samples:
        s.observe(t, v)


def test_merge_adds_counts_and_combines_extrema():
    a, b = _recorder(window_s=1.0), _recorder(window_s=1.0)
    _feed(a, [(0.1, 1.0), (0.2, 5.0)])
    _feed(b, [(0.3, 3.0), (1.2, 2.0)])
    a.merge(b.snapshot())
    wins = a.snapshot()["series"]["lat|tenant=a"]["windows"]
    assert [w["w"] for w in wins] == [0, 1]
    assert wins[0]["count"] == 3
    assert wins[0]["min"] == 1.0 and wins[0]["max"] == 5.0
    assert wins[0]["sum"] == 9.0


def test_merge_into_empty_recorder_is_identity():
    src = _recorder(window_s=0.5)
    _feed(src, [(0.1, 1.25), (0.6, 2.5), (1.4, 0.75)])
    dst = _recorder(window_s=0.5)
    dst.merge(src.snapshot())
    assert dst.snapshot() == src.snapshot()


def test_merge_rejects_mismatched_window_or_buckets():
    a = _recorder(window_s=1.0)
    b = _recorder(window_s=0.5)
    _feed(b, [(0.1, 1.0)])
    with pytest.raises(ValueError, match="window_s"):
        a.merge(b.snapshot())
    c = _recorder(window_s=1.0)
    _feed(c, [(0.1, 1.0)])
    snap = c.snapshot()
    snap["buckets"] = [0.1, 1.0]  # a snapshot exported under another layout
    with pytest.raises(ValueError, match="bucket"):
        a.merge(snap)
    a.merge({})  # empty snapshot is a no-op, not an error


def test_snapshot_series_keys_are_sorted_and_label_canonical():
    rec = _recorder(window_s=1.0)
    rec.series("z.metric").observe(0.1, 1.0)
    rec.series("a.metric", tenant="t", zone="z").observe(0.1, 1.0)
    keys = list(rec.snapshot()["series"])
    assert keys == sorted(keys)
    assert "a.metric|tenant=t,zone=z" in keys


# ----------------------------------------------------------------------
# window-close gauges on the metrics registry
# ----------------------------------------------------------------------


def test_window_close_publishes_window_gauges():
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            rec = TimelineRecorder(window_s=1.0, registry=reg)
            s = rec.series("serve.latency_s", tenant="vod")
            s.observe(0.2, 0.010)
            s.observe(0.3, 0.030)
            rec.advance_to(2.0)
            snap = reg.snapshot()
            values = {
                tuple(sorted(e["labels"].items())): e["value"]
                for e in snap["gauges"]["serve.latency_s_window"]["values"]
            }
            assert values[(("agg", "count"), ("tenant", "vod"))] == 2.0
            assert values[(("agg", "mean"), ("tenant", "vod"))] == pytest.approx(0.020)
            assert values[(("agg", "max"), ("tenant", "vod"))] == pytest.approx(0.030)
    finally:
        set_obs_enabled(old)


# ----------------------------------------------------------------------
# default recorder gating (the null-sink contract)
# ----------------------------------------------------------------------


def test_default_recorder_is_invisible_with_obs_disabled():
    rec = _recorder()
    old_rec = set_default_recorder(rec)
    old = set_obs_enabled(True)
    try:
        assert default_recorder() is rec
        set_obs_enabled(False)
        assert default_recorder() is None  # installed but gated off
    finally:
        set_obs_enabled(old)
        set_default_recorder(old_rec)


def test_scoped_recorder_disabled_installs_none():
    old = set_obs_enabled(True)
    try:
        with scoped_recorder(window_s=1.0) as outer:
            assert outer is not None and default_recorder() is outer
            with scoped_recorder(enabled=False) as inner:
                assert inner is None and default_recorder() is None
            assert default_recorder() is outer
    finally:
        set_obs_enabled(old)


def test_engine_records_latency_series_under_a_scoped_recorder():
    from repro.disksim.array import ElementArray
    from repro.disksim.disk import DiskParameters
    from repro.disksim.request import IOKind

    old = set_obs_enabled(True)
    try:
        with scoped_recorder(window_s=0.01) as rec:
            arr = ElementArray(4, 4 * 1024 * 1024, DiskParameters.savvio_10k3())
            for d in range(4):
                arr.submit(arr.element_request(d, d, IOKind.READ))
            arr.run()
            snap = rec.snapshot()
    finally:
        set_obs_enabled(old)
    wins = snap["series"]["sim.latency_s"]["windows"]
    assert sum(w["count"] for w in wins) == 4
    assert all(w["min"] > 0 for w in wins)

