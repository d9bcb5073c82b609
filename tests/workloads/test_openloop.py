"""Open-loop arrival processes, SLO accounting, throttle policies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.workloads.openloop import (
    DiurnalCurve,
    FixedThrottle,
    LatencyTargetThrottle,
    RebuildThrottle,
    SLOAccountant,
    TenantSpec,
    TokenBucketThrottle,
    make_throttle,
    open_arrivals,
)


# ----------------------------------------------------------------------
# TenantSpec / DiurnalCurve validation
# ----------------------------------------------------------------------


def test_tenant_rejects_bad_specs():
    with pytest.raises(ValueError):
        TenantSpec("", 10.0)
    with pytest.raises(ValueError):
        TenantSpec("t", 0.0)
    with pytest.raises(ValueError):
        TenantSpec("t", 10.0, process="pareto")
    with pytest.raises(ValueError):
        TenantSpec("t", 10.0, zipf_s=-1.0)


def test_diurnal_amplitude_must_keep_rate_positive():
    with pytest.raises(ValueError):
        DiurnalCurve(amplitude=1.0)
    curve = DiurnalCurve(amplitude=0.8, period_s=10.0)
    t = np.linspace(0, 20, 500)
    assert np.all(curve.factor(t) > 0)
    assert curve.peak_factor == pytest.approx(1.8)


# ----------------------------------------------------------------------
# arrival generation
# ----------------------------------------------------------------------


def _mix():
    return (
        TenantSpec("vod", 40.0, zipf_s=1.1),
        TenantSpec("burst", 10.0, process="bursty"),
    )


def test_arrivals_are_bit_identical_for_the_same_seed():
    a = open_arrivals(5, 12, 8.0, _mix(), diurnal=DiurnalCurve(0.5, 8.0), seed=7)
    b = open_arrivals(5, 12, 8.0, _mix(), diurnal=DiurnalCurve(0.5, 8.0), seed=7)
    assert a == b
    assert a != open_arrivals(5, 12, 8.0, _mix(), diurnal=DiurnalCurve(0.5, 8.0), seed=8)


def test_arrivals_are_sorted_tagged_and_in_range():
    reads = open_arrivals(5, 12, 6.0, _mix(), seed=3)
    times = [r.time for r in reads]
    assert times == sorted(times)
    assert all(0 <= r.time < 6.0 for r in reads)
    assert all(0 <= r.stripe < 12 and 0 <= r.i < 5 and 0 <= r.j < 5 for r in reads)
    assert {r.tenant for r in reads} == {"vod", "burst"}


def test_poisson_rate_is_respected_on_average():
    reads = open_arrivals(5, 12, 50.0, [TenantSpec("t", 40.0)], seed=1)
    # 2000 expected arrivals; 5 sigma ≈ 224
    assert len(reads) == pytest.approx(2000, abs=250)


def test_adding_a_tenant_does_not_perturb_existing_streams():
    solo = open_arrivals(5, 12, 6.0, [TenantSpec("vod", 40.0, zipf_s=1.1)], seed=7)
    mixed = open_arrivals(
        5, 12, 6.0, [TenantSpec("vod", 40.0, zipf_s=1.1), TenantSpec("extra", 5.0)], seed=7
    )
    assert [r for r in mixed if r.tenant == "vod"] == solo


def test_zipf_skews_toward_low_stripes():
    reads = open_arrivals(5, 8, 60.0, [TenantSpec("t", 40.0, zipf_s=1.5)], seed=2)
    counts = np.bincount([r.stripe for r in reads], minlength=8)
    assert counts[0] > 3 * counts[-1]
    uniform = open_arrivals(5, 8, 60.0, [TenantSpec("t", 40.0)], seed=2)
    ucounts = np.bincount([r.stripe for r in uniform], minlength=8)
    assert ucounts.max() < 2 * max(1, ucounts.min())


def test_bursty_process_is_burstier_than_poisson():
    """Index of dispersion of 1 s bin counts: ~1 for Poisson, >1 for on/off."""
    def dispersion(reads, duration):
        counts = np.bincount(
            [int(r.time) for r in reads], minlength=int(duration)
        )
        return counts.var() / counts.mean()

    poisson = open_arrivals(5, 12, 200.0, [TenantSpec("p", 20.0)], seed=5)
    bursty = open_arrivals(
        5, 12, 200.0, [TenantSpec("b", 20.0, process="bursty")], seed=5
    )
    assert dispersion(bursty, 200) > 2 * dispersion(poisson, 200)
    # the long-run mean rate still matches the spec
    assert len(bursty) == pytest.approx(len(poisson), rel=0.25)


def test_diurnal_curve_modulates_arrival_density():
    curve = DiurnalCurve(amplitude=0.9, period_s=100.0, phase=np.pi / 2)
    reads = open_arrivals(5, 12, 100.0, [TenantSpec("t", 50.0)], diurnal=curve, seed=4)
    times = np.array([r.time for r in reads])
    # phase π/2: peak (×1.9) in the first quarter, trough (×0.1) in the third
    peak = np.sum(times < 25.0)
    trough = np.sum((times >= 50.0) & (times < 75.0))
    # expected densities ~39 vs ~11 arrivals per unit rate: ratio ≈ 3.7
    assert peak > 2.5 * trough


def test_target_disk_pins_reads_and_is_bounds_checked():
    reads = open_arrivals(5, 12, 4.0, [TenantSpec("t", 30.0, target_disk=2)], seed=1)
    assert all(r.i == 2 for r in reads)
    with pytest.raises(ValueError, match=r"target_disk must be in \[0, 5\)"):
        open_arrivals(5, 12, 4.0, [TenantSpec("t", 30.0, target_disk=5)], seed=1)


def test_open_arrivals_validates_mix():
    with pytest.raises(ValueError, match="at least one tenant"):
        open_arrivals(5, 12, 4.0, [], seed=1)
    with pytest.raises(ValueError, match="unique"):
        open_arrivals(5, 12, 4.0, [TenantSpec("t", 1.0), TenantSpec("t", 2.0)], seed=1)
    with pytest.raises(ValueError, match="duration"):
        open_arrivals(5, 12, 0.0, [TenantSpec("t", 1.0)], seed=1)


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------


def test_slo_summary_percentiles_match_numpy():
    reg = MetricsRegistry()
    acc = SLOAccountant(deadline_s=0.05, registry=reg)
    lats = np.random.default_rng(0).exponential(0.03, size=500)
    for x in lats:
        acc.record(float(x), tenant="vod")
    s = acc.summary(duration_s=10.0)
    assert s.served == 500
    assert s.p50_s == pytest.approx(float(np.percentile(lats, 50)))
    assert s.p99_s == pytest.approx(float(np.percentile(lats, 99)))
    assert s.p999_s == pytest.approx(float(np.percentile(lats, 99.9)))
    assert s.mean_s == pytest.approx(float(lats.mean()))
    assert s.max_s == pytest.approx(float(lats.max()))
    assert s.deadline_misses == int(np.sum(lats > 0.05))
    assert s.goodput_rps == pytest.approx((500 - s.deadline_misses) / 10.0)
    assert dict(s.per_tenant_served) == {"vod": 500}


def test_slo_empty_summary_is_nan_and_json_null():
    s = SLOAccountant(registry=MetricsRegistry()).summary(duration_s=5.0)
    assert s.served == 0
    assert math.isnan(s.p50_s) and math.isnan(s.p99_s) and math.isnan(s.p999_s)
    assert math.isnan(s.mean_s) and math.isnan(s.max_s)
    assert s.goodput_rps == 0.0
    d = s.to_dict()
    assert d["p99_s"] is None and d["mean_s"] is None


def test_slo_streaming_quantile_tracks_exact_quantile():
    reg = MetricsRegistry()
    acc = SLOAccountant(registry=reg, gauge_every=10)
    lats = np.random.default_rng(1).exponential(0.02, size=300)
    for x in lats:
        acc.record(float(x))
    exact = float(np.percentile(lats, 99))
    est = reg.histogram("serve.read_latency_s").state().quantile(0.99)
    # bucketed estimate: right bucket's upper bound, so within one
    # power-of-two bracket of the exact value
    assert exact <= est <= 4 * exact
    empty = MetricsRegistry()
    SLOAccountant(registry=empty)
    assert math.isnan(empty.histogram("serve.read_latency_s").labels().quantile(0.5))


def test_slo_live_gauges_never_exceed_the_largest_read():
    """One 3 ms read: every live quantile gauge is the read itself, not
    the upper bound of its bucket."""
    reg = MetricsRegistry()
    acc = SLOAccountant(registry=reg, gauge_every=1)
    acc.record(0.003)
    values = reg.snapshot()["gauges"]["serve.latency_quantile_s"]["values"]
    assert len(values) == 3
    assert all(e["value"] <= 0.003 for e in values)


def test_slo_wires_metrics_registry():
    reg = MetricsRegistry()
    acc = SLOAccountant(deadline_s=0.01, registry=reg)
    acc.record(0.005, tenant="a")
    acc.record(0.5, tenant="b")
    acc.observe_queue_depth(7)
    snap = reg.snapshot()
    assert "serve.reads_total" in snap["counters"]
    assert "serve.deadline_miss_total" in snap["counters"]
    assert "serve.read_latency_s" in snap["histograms"]
    assert "serve.queue_depth" in snap["gauges"]


# ----------------------------------------------------------------------
# throttle policies
# ----------------------------------------------------------------------


def test_fixed_throttle():
    assert FixedThrottle(0.25).delay_s(1.0) == 0.25
    with pytest.raises(ValueError):
        FixedThrottle(-0.1)


def test_token_bucket_charges_debt_at_the_configured_rate():
    tb = TokenBucketThrottle(ios_per_s=10.0, burst=10.0)
    assert tb.delay_s(0.0, n_ios=5) == 0.0  # within burst
    # 5 tokens left, spend 25: debt 20 -> 2 s to refill
    assert tb.delay_s(0.0, n_ios=25) == pytest.approx(2.0)
    # 3 s later the debt is repaid and 10 more accrued (capped at burst)
    assert tb.delay_s(3.0, n_ios=5) == 0.0
    with pytest.raises(ValueError):
        TokenBucketThrottle(0.0)


def test_latency_target_throttle_ramps_and_decays():
    p = LatencyTargetThrottle(0.05, window=8, base_delay_s=0.01, max_delay_s=0.5)
    assert p.delay_s(0.0) == 0.0  # no observations yet
    for _ in range(8):
        p.observe(0.2)  # 4x over target
    ramp = [p.delay_s(float(t)) for t in range(8)]
    assert ramp[0] == pytest.approx(0.01)
    assert ramp[-1] == pytest.approx(0.5)  # capped
    assert all(b >= a for a, b in zip(ramp, ramp[1:]))
    for _ in range(8):
        p.observe(0.001)  # well under target
    decay = [p.delay_s(float(t)) for t in range(8)]
    assert all(b <= a for a, b in zip(decay, decay[1:]))
    assert decay[-1] == 0.0  # fully released


def test_make_throttle_specs():
    assert make_throttle("none") == 0.0
    assert isinstance(make_throttle("fixed:0.05"), FixedThrottle)
    assert isinstance(make_throttle("token:25"), TokenBucketThrottle)
    lt = make_throttle("latency:100")
    assert isinstance(lt, LatencyTargetThrottle)
    assert lt.target_p99_s == pytest.approx(0.1)
    for bad in ("fixed", "warp:3", "token:fast"):
        with pytest.raises(ValueError):
            make_throttle(bad)


def test_policies_satisfy_the_throttle_protocol():
    for p in (FixedThrottle(0.1), TokenBucketThrottle(5.0), LatencyTargetThrottle(0.1)):
        assert isinstance(p, RebuildThrottle)
