"""The open-loop serve tier: determinism, SLOs, throttle tradeoff."""

from __future__ import annotations

import math

import pytest

from repro.raidsim.serve import (
    ServeConfig,
    ServeResult,
    compare_serve,
    run_serve,
    serve_arrivals,
)
from repro.workloads.openloop import TenantSpec

CFG = ServeConfig(n=5, n_stripes=6, rate_per_s=30.0, seed=11)


@pytest.fixture(scope="module")
def baseline():
    return compare_serve(CFG)


def test_same_config_is_bit_identical(baseline):
    again = compare_serve(CFG)
    assert again == baseline
    assert again.traditional.slo == baseline.traditional.slo


def test_both_arrangements_face_the_same_arrivals(baseline):
    assert baseline.traditional.n_arrivals == baseline.shifted.n_arrivals
    assert baseline.traditional.slo.duration_s == baseline.shifted.slo.duration_s
    assert serve_arrivals(CFG) == serve_arrivals(CFG)


def test_slo_percentiles_are_finite_and_ordered(baseline):
    for r in (baseline.traditional, baseline.shifted):
        s = r.slo
        assert s.served > 0
        assert math.isfinite(s.p50_s) and math.isfinite(s.p999_s)
        assert s.p50_s <= s.p99_s <= s.p999_s <= s.max_s
        assert s.goodput_rps > 0
        assert r.rebuild_verified
        assert r.availability == 1.0


def test_shifted_serves_a_better_tail(baseline):
    """The paper's claim, restated for open-loop traffic."""
    assert baseline.p99_ratio > 1.0
    assert baseline.makespan_speedup > 1.0


def test_deadline_misses_feed_goodput():
    strict = compare_serve(
        ServeConfig(n=5, n_stripes=6, rate_per_s=30.0, seed=11, deadline_s=0.2)
    )
    for r in (strict.traditional, strict.shifted):
        assert r.slo.deadline_misses > 0
        expected = (r.slo.served - r.slo.deadline_misses) / r.slo.duration_s
        assert r.slo.goodput_rps == pytest.approx(expected)


def test_throttle_trades_rebuild_time_for_tail_latency(baseline):
    """The tentpole's reason to exist: a measurable p99-vs-makespan knob."""
    throttled = compare_serve(
        ServeConfig(n=5, n_stripes=6, rate_per_s=30.0, seed=11, throttle="token:5")
    )
    free, slow = baseline.traditional, throttled.traditional
    assert slow.rebuild_makespan_s > free.rebuild_makespan_s
    assert slow.slo.p99_s < free.slo.p99_s
    assert slow.slo.served == free.slo.served  # open loop: arrivals unchanged


def test_multi_tenant_mix_is_tagged_per_tenant():
    cfg = ServeConfig(
        n=5,
        n_stripes=6,
        seed=11,
        tenants=(TenantSpec("vod", 20.0, zipf_s=1.1), TenantSpec("batch", 8.0)),
    )
    r = run_serve("mirror", serve_arrivals(cfg), 3.0, cfg)
    counts = dict(r.slo.per_tenant_served)
    assert set(counts) == {"vod", "batch"}
    assert counts["vod"] > counts["batch"]


def test_config_rejects_bad_throttle_spec_eagerly():
    with pytest.raises(ValueError):
        ServeConfig(throttle="warp:9")
    with pytest.raises(ValueError):
        ServeConfig(duration_factor=0.0)


def test_empty_arrival_stream_reports_nan_not_zero():
    cfg = ServeConfig(n=5, n_stripes=6, seed=11)
    r = run_serve("mirror", [], 3.0, cfg)
    assert isinstance(r, ServeResult)
    assert r.slo.served == 0
    assert math.isnan(r.slo.p99_s)
    assert r.slo.to_dict()["p99_s"] is None


def _serve_worker(seed: int):
    """Module-level for pickling; the pool half of the bit-identity pin."""
    return compare_serve(ServeConfig(n=4, n_stripes=4, rate_per_s=20.0, seed=seed))


def test_compare_serve_is_bit_identical_across_the_worker_pool_boundary():
    from repro.parallel import WorkerPool

    serial = _serve_worker(77)
    with WorkerPool(jobs=2) as pool:
        remote = pool.map(_serve_worker, [77, 77])
    assert remote[0] == remote[1] == serial


def test_result_carries_timeseries_and_fault_overlays(baseline):
    """The flight recorder rides along: latency/depth/progress windows
    over the simulated clock plus the disk-death overlay band."""
    for r in (baseline.traditional, baseline.shifted):
        snap = r.timeseries
        names = {e["name"] for e in snap["series"].values()}
        assert {"serve.latency_s", "serve.queue_depth", "rebuild.progress"} <= names
        served = sum(
            w["count"]
            for e in snap["series"].values() if e["name"] == "serve.latency_s"
            for w in e["windows"]
        )
        assert served == r.slo.served
        progress = [
            w["max"]
            for e in snap["series"].values() if e["name"] == "rebuild.progress"
            for w in e["windows"]
        ]
        assert max(progress) == pytest.approx(1.0)  # the rebuild completed
        assert progress == sorted(progress)  # monotone over the clock
        assert len(r.overlays) == 1
        band = r.overlays[0]
        assert band["kind"] == "disk-death" and band["t0"] == 0.0
        assert band["t1"] == pytest.approx(r.rebuild_makespan_s)
        assert band["label"] == "disk-death (disk 0)"


def test_overlay_band_spans_the_rebuild_of_the_failed_disk(baseline):
    """The band, key order included, is what `repro serve --json` writes."""
    for r in (baseline.traditional, baseline.shifted):
        (band,) = r.overlays
        assert list(band.items()) == [
            ("t0", 0.0),
            ("t1", r.rebuild_makespan_s),
            ("kind", "disk-death"),
            ("disk", CFG.failed_disk),
            ("label", f"disk-death (disk {CFG.failed_disk})"),
        ]


def test_timeseries_is_empty_with_observability_off():
    from repro.obs import set_obs_enabled

    old = set_obs_enabled(False)
    try:
        r = run_serve("mirror", serve_arrivals(CFG), 3.0, CFG)
    finally:
        set_obs_enabled(old)
    assert r.timeseries == {}
    assert r.overlays  # overlay bands are plain data, recorder or not
