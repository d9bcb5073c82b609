"""Metrics registry: instruments, labels, snapshot/merge, null sink."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Distribution,
    MetricsRegistry,
    default_registry,
    obs_enabled,
    scoped_registry,
    set_obs_enabled,
    write_metrics,
)


@pytest.fixture
def registry():
    """A fresh scoped default registry with observability forced on."""
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            yield reg
    finally:
        set_obs_enabled(old)


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------


def test_counter_labels_and_totals():
    reg = MetricsRegistry()
    c = reg.counter("io.requests", "requests by kind")
    c.inc(kind="read")
    c.inc(2, kind="read")
    c.inc(kind="write")
    assert c.value(kind="read") == 3
    assert c.value(kind="write") == 1
    assert c.value(kind="trim") == 0
    assert c.total() == 4


def test_bound_children_are_cached_and_share_state():
    reg = MetricsRegistry()
    c = reg.counter("hits")
    bound = c.labels(disk="3")
    assert c.labels(disk="3") is bound
    bound.inc(5)
    assert c.value(disk="3") == 5


def test_registry_lookups_are_get_or_create():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert "a" in reg and "b" not in reg
    assert len(reg) == 1


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered as a counter"):
        reg.gauge("x")


def test_gauge_set():
    reg = MetricsRegistry()
    g = reg.gauge("queue_depth")
    g.set(4, disk="0")
    g.set(2, disk="0")
    assert g.value(disk="0") == 2


def test_histogram_observe_and_state():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.labels().observe(v)
    state = h.state()
    assert state.count == 4
    assert state.counts == [1, 2, 1]  # <=0.1, <=1.0, +inf
    assert state.sum == pytest.approx(6.05)
    assert state.min == 0.05 and state.max == 5.0


@given(
    st.lists(
        st.floats(min_value=1e-4, max_value=DEFAULT_BUCKETS[-1]), min_size=1, max_size=200
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
@settings(max_examples=300, deadline=None)
def test_bucket_quantile_is_within_sqrt2_above_nearest_rank(values, q):
    dist = Distribution()
    for v in values:
        dist.observe(v)
    x = sorted(values)[math.ceil(q * len(values)) - 1]
    assert x <= dist.quantile(q) <= math.sqrt(2) * x * (1 + 1e-12)


def test_histogram_buckets_must_increase():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="strictly increasing"):
        reg.histogram("bad", buckets=(1.0, 1.0, 2.0))


# ----------------------------------------------------------------------
# snapshot / merge / export round-trip
# ----------------------------------------------------------------------


def _populate(reg: MetricsRegistry) -> None:
    reg.counter("c", "a counter").inc(7, kind="read")
    reg.gauge("g").set(3.5, disk="1")
    h = reg.histogram("h", buckets=(1.0, 10.0))
    h.labels().observe(0.5)
    h.labels().observe(20.0)


def test_snapshot_is_plain_data_and_merge_reproduces_it():
    src = MetricsRegistry()
    _populate(src)
    snap = src.snapshot()
    dst = MetricsRegistry()
    dst.merge(snap)
    assert dst.snapshot() == snap


def test_merge_adds_counters_and_histograms_last_write_wins_gauges():
    a = MetricsRegistry()
    _populate(a)
    b = MetricsRegistry()
    b.counter("c").inc(3, kind="read")
    b.gauge("g").set(9.0, disk="1")
    b.histogram("h", buckets=(1.0, 10.0)).labels().observe(2.0)
    a.merge(b.snapshot())
    assert a.counter("c").value(kind="read") == 10
    assert a.gauge("g").value(disk="1") == 9.0
    state = a.histogram("h").state()
    assert state.count == 3
    assert state.min == 0.5 and state.max == 20.0


def test_merge_rejects_bucket_layout_mismatch():
    a = MetricsRegistry()
    a.histogram("h", buckets=(1.0, 10.0)).labels().observe(2.0)
    snap = a.snapshot()
    b = MetricsRegistry()
    b.histogram("h", buckets=(1.0, 2.0))
    with pytest.raises(ValueError, match="bucket layout mismatch"):
        b.merge(snap)


def test_export_round_trip_is_exact(tmp_path):
    src = MetricsRegistry()
    _populate(src)
    path = write_metrics(tmp_path / "metrics.json", src)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == src.snapshot()
    reloaded = MetricsRegistry()
    reloaded.merge(loaded)
    assert reloaded.snapshot() == src.snapshot()
    assert reloaded.counter("c").value(kind="read") == 7


# ----------------------------------------------------------------------
# the global switch and the null sink
# ----------------------------------------------------------------------


def test_null_registry_swallows_everything():
    assert NULL_REGISTRY.counter("anything") is NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("x").labels(a="b") is NULL_INSTRUMENT
    NULL_INSTRUMENT.inc(5)
    NULL_INSTRUMENT.observe(1.0)
    NULL_INSTRUMENT.set(2.0)
    assert NULL_INSTRUMENT.value() == 0.0
    assert NULL_REGISTRY.snapshot() == {}
    assert not NULL_REGISTRY.enabled
    assert len(NULL_REGISTRY) == 0


def test_default_registry_tracks_the_switch():
    old = set_obs_enabled(True)
    try:
        assert default_registry().enabled
        set_obs_enabled(False)
        assert not obs_enabled()
        assert default_registry() is NULL_REGISTRY
    finally:
        set_obs_enabled(old)


def test_scoped_registry_isolates_and_restores(registry):
    registry.counter("outer").inc()
    with scoped_registry() as inner:
        assert inner is default_registry()
        assert "outer" not in inner
        inner.counter("inner").inc()
    assert default_registry() is registry
    assert "inner" not in registry


def test_scoped_registry_yields_null_sink_when_disabled():
    old = set_obs_enabled(False)
    try:
        with scoped_registry() as reg:
            assert reg is NULL_REGISTRY
    finally:
        set_obs_enabled(old)
