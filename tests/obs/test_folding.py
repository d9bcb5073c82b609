"""Columnar observability: folded state equals per-sample observation.

Per-completion instruments buffer their samples and fold them at flush
points (an engine ``run()``, a recorder advance, a registry read).  The
contract under test is bit-identity: whatever the flush points, the
recorder's windows and snapshots, the published ``*_window`` gauges,
the SLO accountant's registry state and the engine's counters equal
what per-sample updates leave — and a pending column never outgrows
:data:`~repro.obs.timeseries.COLUMN_BOUND`.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.disk import DiskParameters
from repro.disksim.events import Simulation
from repro.disksim.request import IOKind, IORequest
from repro.disksim.scheduler import FIFOScheduler
from repro.obs import (
    Distribution,
    MetricsRegistry,
    TimelineRecorder,
    TimeSeries,
    scoped_registry,
    set_obs_enabled,
)
from repro.obs.timeseries import COLUMN_BOUND, _series_key
from repro.workloads.openloop import SLOAccountant

_MB = 1024 * 1024


# ----------------------------------------------------------------------
# per-sample references
# ----------------------------------------------------------------------


class _PerSampleSeries(TimeSeries):
    """A series that applies each sample to its window at once."""

    __slots__ = ()

    def observe(self, t, value):
        value = float(value)
        if not math.isfinite(value):
            return
        w = int(t // self._rec.window_s)
        win = self._open
        if win is None or w > win[0]:
            if win is not None:
                self._close(win)
            win = self._open = (w, Distribution())
        win[1].observe(value)

    def observe_many(self, ts, values):
        for t, v in zip(ts, values):
            self.observe(t, v)


class _PerSampleRecorder(TimelineRecorder):
    def series(self, name, help="", **labels):
        key = _series_key(name, labels)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _PerSampleSeries(self, name, help, dict(labels))
        return s


class _PerReadAccountant(SLOAccountant):
    """Every read updates the registry as it is recorded."""

    def record(self, latency_s, tenant="", t_s=None):
        if self._rec is not None and t_s is not None:
            handle = self._ts_lat.get(tenant)
            if handle is None:
                handle = self._ts_lat[tenant] = self._rec.series(
                    "serve.latency_s",
                    "open-loop read latency over simulated time",
                    tenant=tenant or "all",
                )
            handle.observe(t_s, latency_s)
        self._lat.append(latency_s)
        self._folded = len(self._lat)
        self._tenants[tenant] = self._tenants.get(tenant, 0) + 1
        self._obs_reads.inc(1.0, tenant=tenant or "all")
        self._obs_hist.observe(latency_s)
        if self.deadline_s is not None and latency_s > self.deadline_s:
            self._misses += 1
            self._obs_miss.inc()
        if len(self._lat) % self.gauge_every == 0:
            for q, gauge in self._obs_q.items():
                gauge.set(self._obs_hist.quantile(q))

    def observe_queue_depth(self, depth, t_s=None):
        self._obs_depth.set(depth)
        if self._ts_depth is not None and t_s is not None:
            self._ts_depth.observe(t_s, depth)


# ----------------------------------------------------------------------
# the flight recorder
# ----------------------------------------------------------------------

_values = st.one_of(
    st.floats(0.0, 5.0, allow_nan=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]),
)
_ops = st.lists(
    st.one_of(
        # a sample: the clock moves forward, or lags (clamped samples)
        st.tuples(st.just("obs"), st.floats(-1.5, 3.0), _values),
        st.tuples(
            st.just("many"),
            st.lists(st.tuples(st.floats(-1.0, 3.0), _values), max_size=12),
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 4.0)),
        st.tuples(st.just("snapshot")),
        st.tuples(
            st.just("merge"),
            st.lists(
                st.tuples(st.integers(0, 60), st.floats(0.0, 5.0)), min_size=1, max_size=4
            ),
        ),
    ),
    max_size=80,
)


def _window_snapshot(pairs) -> dict:
    """A one-series snapshot holding a window per ``(index, value)``."""
    windows = {}
    for w, v in pairs:
        d = Distribution()
        d.observe(v)
        windows[w] = {"w": w, **d.to_dict()}
    return {
        "window_s": 1.0,
        "buckets": list(Distribution().bounds),
        "series": {
            "lat": {
                "name": "lat",
                "labels": {},
                "windows": [windows[w] for w in sorted(windows)],
            }
        },
    }


def _replay(rec, reg, ops) -> list:
    """Apply ``ops`` to ``rec``; returns every state read along the way."""
    s = rec.series("lat", "latency")
    clock = 0.0
    reads = []
    for op in ops:
        kind = op[0]
        if kind == "obs":
            clock += op[1]
            s.observe(clock, op[2])
        elif kind == "many":
            ts = []
            for step, _ in op[1]:
                clock += step
                ts.append(clock)
            s.observe_many(ts, [v for _, v in op[1]])
        elif kind == "advance":
            clock += op[1]
            rec.advance_to(clock)
        elif kind == "snapshot":
            reads.append((rec.snapshot(), reg.snapshot()))
        else:
            rec.merge(_window_snapshot(op[1]))
    reads.append((rec.snapshot(), reg.snapshot(), s.closed, s.windows()))
    return reads


@settings(max_examples=150, deadline=None)
@given(ops=_ops, horizon=st.integers(1, 6))
def test_folded_recorder_equals_per_sample_reference(ops, horizon):
    reg, ref_reg = MetricsRegistry(), MetricsRegistry()
    folded = _replay(TimelineRecorder(1.0, horizon, registry=reg), reg, ops)
    per_sample = _replay(
        _PerSampleRecorder(1.0, horizon, registry=ref_reg), ref_reg, ops
    )
    assert folded == per_sample


def test_window_gauges_fold_on_registry_read():
    """A registry read sees the window a pending sample closed."""
    reg = MetricsRegistry()
    rec = TimelineRecorder(1.0, registry=reg)
    s = rec.series("lat")
    s.observe(0.5, 2.0)
    s.observe(1.5, 4.0)  # closes window 0 — but only once folded
    values = reg.snapshot()["gauges"]["lat_window"]["values"]
    assert {e["labels"]["agg"]: e["value"] for e in values}["max"] == 2.0


def test_one_long_run_never_outgrows_the_column_bound():
    """100k completions in one ``run()``, each feeding a recorder series:
    no pending column ever holds more than the bound, and the folded
    windows still equal per-sample observation."""
    n = 100_000
    old = set_obs_enabled(True)
    try:
        with scoped_registry():
            rec = TimelineRecorder(0.5, registry=False)
            sim = Simulation(1, DiskParameters.ideal(), FIFOScheduler, recorder=rec)
            series = rec.series("read")
            ref = _PerSampleRecorder(0.5, registry=False).series("read")
            peak = [0]

            def settled(req: IORequest) -> None:
                series.observe(req.finish_time, req.latency)
                ref.observe(req.finish_time, req.latency)
                pending = max(len(s._vs) for s in rec._series.values())
                if pending > peak[0]:
                    peak[0] = pending

            for k in range(n):
                sim.submit(IORequest(0, (k % 64) * 4096, 4096, IOKind.READ), settled)
            sim.run()
            assert len(sim.completed) == n
            assert 0 < peak[0] <= COLUMN_BOUND
            assert series.windows() == ref.windows()
            engine = rec.series("sim.latency_s")
            assert sum(w["count"] for w in engine.windows()) == n
    finally:
        set_obs_enabled(old)


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------

_reads = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"),
            st.floats(1e-5, 2.0, allow_nan=False),
            st.sampled_from(["", "vod", "batch"]),
        ),
        st.tuples(st.just("depth"), st.integers(0, 50)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("snapshot")),
    ),
    max_size=200,
)


def _account(cls, reg, gauge_every, deadline, ops) -> list:
    acc = cls(deadline_s=deadline, registry=reg, gauge_every=gauge_every)
    reads = []
    for op in ops:
        if op[0] == "read":
            acc.record(op[1], tenant=op[2])
        elif op[0] == "depth":
            acc.observe_queue_depth(op[1])
        elif op[0] == "flush":
            acc.flush()
        else:
            reads.append(reg.snapshot())
    reads.append(reg.snapshot())
    reads.append(acc.summary(10.0).to_dict())
    return reads


@pytest.mark.parametrize("gauge_every", [1, 7, 64])
@settings(max_examples=60, deadline=None)
@given(ops=_reads, deadline=st.sampled_from([None, 0.05, 0.5]))
def test_folded_slo_accounting_equals_per_read_reference(gauge_every, ops, deadline):
    folded = _account(SLOAccountant, MetricsRegistry(), gauge_every, deadline, ops)
    per_read = _account(_PerReadAccountant, MetricsRegistry(), gauge_every, deadline, ops)
    assert folded == per_read


def test_quantile_gauges_are_set_from_the_last_refresh_point():
    """With 10 reads and ``gauge_every=4`` the gauges reflect reads 1-8,
    not the two recorded after the last refresh."""
    reg = MetricsRegistry()
    acc = SLOAccountant(registry=reg, gauge_every=4)
    for _ in range(8):
        acc.record(0.001)
    acc.record(1.0)
    acc.record(1.0)
    gauges = reg.snapshot()["gauges"]["serve.latency_quantile_s"]["values"]
    assert all(e["value"] == 0.001 for e in gauges)
    assert reg.histogram("serve.read_latency_s").state().count == 10


def test_scrapes_from_other_threads_lose_no_sample():
    """Registry reads fold from their own threads while samples land:
    no sample is lost or folded twice, and the order is kept."""
    n = 20_000
    reg, ref_reg = MetricsRegistry(), MetricsRegistry()
    rec = TimelineRecorder(0.05, registry=reg)
    acc = SLOAccountant(deadline_s=0.05, registry=reg, gauge_every=7, recorder=rec)
    ref_rec = _PerSampleRecorder(0.05, registry=ref_reg)
    ref = _PerReadAccountant(
        deadline_s=0.05, registry=ref_reg, gauge_every=7, recorder=ref_rec
    )
    stop = threading.Event()
    errors = []

    def scrape() -> None:
        try:
            while not stop.is_set():
                reg.snapshot()
                acc.flush()  # and straight at the producers
                rec.flush()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=scrape) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for k in range(n):
            t, v = k * 1e-3, (k * 37 % 101) * 1e-3
            tenant = "vod" if k % 3 else "batch"
            acc.record(v, tenant=tenant, t_s=t)
            ref.record(v, tenant=tenant, t_s=t)
            acc.observe_queue_depth(k % 13, t_s=t)
            ref.observe_queue_depth(k % 13, t_s=t)
    finally:
        stop.set()
        for th in threads:
            th.join(timeout=30)
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert reg.snapshot() == ref_reg.snapshot()
    assert rec.snapshot() == ref_rec.snapshot()
    assert reg.histogram("serve.read_latency_s").state().count == n


# ----------------------------------------------------------------------
# the engine: one fold per run(), each completion counted once
# ----------------------------------------------------------------------


def _requests(n: int) -> list[IORequest]:
    return [
        IORequest(k % 3, (k * 7 % 50) * _MB, _MB, IOKind.WRITE if k % 4 == 0 else IOKind.READ)
        for k in range(n)
    ]


def _engine_metrics(drive) -> tuple[dict, list[IORequest]]:
    """Run ``drive(sim)`` under a fresh registry; returns its snapshot
    and the completion log."""
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            sim = Simulation(3, DiskParameters.savvio_10k3())
            drive(sim)
            return reg.snapshot(), sim.completed
    finally:
        set_obs_enabled(old)


def _whole(sim: Simulation) -> None:
    for r in _requests(60):
        sim.submit(r, lambda req: None)
    sim.run()


def _split(sim: Simulation) -> None:
    for r in _requests(60):
        sim.submit(r, lambda req: None)
    sim.run(until=0.1)
    sim.run(until=0.1)  # no-op: the clock never moves backwards
    sim.run(until=0.4)
    sim.run()


def _nested(sim: Simulation) -> None:
    nested = []

    def settled(req: IORequest) -> None:
        if not nested:
            nested.append(sim.now)
            sim.run(until=sim.now + 0.2)  # a run() inside a completion callback

    for r in _requests(60):
        sim.submit(r, settled)
    sim.run()
    assert nested


@pytest.mark.parametrize("drive", [_split, _nested], ids=["until-split", "nested"])
def test_each_completion_is_counted_once(drive):
    snap, completed = _engine_metrics(drive)
    assert len(completed) == 60
    requests = {
        e["labels"]["kind"]: e["value"] for e in snap["counters"]["sim.requests"]["values"]
    }
    assert requests == {"read": 45.0, "write": 15.0}
    assert snap["counters"]["sim.events_dispatched"]["values"][0]["value"] == 60
    # the histogram holds each completion once, summed in completion order
    reference = Distribution()
    for r in completed:
        reference.observe(r.finish_time - r.submit_time)
    hist = snap["histograms"]["sim.request_latency_s"]["values"][0]
    assert {k: hist[k] for k in ("counts", "sum", "count", "min", "max")} == reference.to_dict()


def test_until_split_run_matches_one_run():
    whole, whole_log = _engine_metrics(_whole)
    split, split_log = _engine_metrics(_split)
    assert [r.finish_time for r in split_log] == [r.finish_time for r in whole_log]
    assert split["counters"] == whole["counters"]
    assert split["histograms"] == whole["histograms"]


# ----------------------------------------------------------------------
# the queue-depth gauges: set at each run() exit, as per completion
# ----------------------------------------------------------------------


def _depth_check(batches, gaps, mode):
    """Submit ``batches`` of requests under ``mode``; at every ``run()``
    exit, top-level or nested, the ``sim.queue_depth`` gauges must equal
    a reference gauge set on every completion — values and label order."""
    ref = MetricsRegistry()
    ref_qd = ref.gauge("sim.queue_depth", "per-disk scheduler queue depth at last completion")
    checks = []
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            sim = Simulation(3, DiskParameters.savvio_10k3())
            pending = list(batches)
            nested = []

            def check():
                folded = reg.gauge("sim.queue_depth", "")
                checks.append(
                    (
                        (folded._values.copy(), folded.label_sets()),
                        (ref_qd._values.copy(), ref_qd.label_sets()),
                    )
                )

            def settled(req: IORequest) -> None:
                # the depth the engine stored for this completion
                ref_qd.labels(disk=str(req.disk)).set(len(sim.disks[req.disk].scheduler))
                if mode == "nested":
                    if pending:
                        submit(pending.pop(0))
                    if len(nested) < 3:
                        nested.append(sim.now)
                        sim.run(until=sim.now + 0.01)
                        check()

            def submit(batch):
                for disk, slot in batch:
                    sim.submit(IORequest(disk, slot * _MB, _MB, IOKind.READ), settled)

            if mode == "whole":
                for batch in batches:
                    submit(batch)
                sim.run()
                check()
            elif mode == "until-split":
                for batch, gap in zip(batches, gaps):
                    submit(batch)
                    sim.run(until=sim.now + gap)
                    check()
                sim.run()
                check()
            else:
                submit(pending.pop(0))
                sim.run()
                check()
                while pending:
                    submit(pending.pop(0))
                    sim.run()
                    check()
    finally:
        set_obs_enabled(old)
    for folded, reference in checks:
        assert folded == reference
    return checks


_depth_batch = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 60)), min_size=1, max_size=12
)


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(_depth_batch, min_size=1, max_size=8),
    gaps=st.lists(st.floats(0.0, 0.05), min_size=8, max_size=8),
    mode=st.sampled_from(["whole", "until-split", "nested"]),
)
def test_folded_queue_depth_equals_per_completion_gauge(batches, gaps, mode):
    _depth_check(batches, gaps, mode)


@pytest.mark.parametrize("mode", ["whole", "until-split", "nested"])
def test_queue_depth_gauges_cover_every_disk_that_completed(mode):
    batches = [[(2, 5), (2, 6), (0, 1)], [(2, 40), (1, 3)], [(0, 9)] * 4]
    checks = _depth_check(batches, [0.005, 0.0, 0.02], mode)
    values, labels = checks[-1][0]
    assert sorted(lab["disk"] for lab in labels) == ["0", "1", "2"]
    assert all(v == 0 for v in values.values())  # every queue drained
