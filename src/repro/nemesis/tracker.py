"""Fault timelines: each fault's active interval as a first-class object.

The ydb-style nemesis pattern separates *doing* harm from *knowing*
what harm is currently being done: every injected fault is recorded as
a :class:`~repro.nemesis.schedule.FaultInterval` on a
:class:`FaultTimeline`, so the anomaly detector can ask "what was
hurting the array at time *t*?" — the question attribution is made of.

The timeline exports through the observability layer:

* :meth:`FaultTimeline.export_spans` emits one trace span per fault
  interval (category ``"nemesis"``), so a chrome://tracing view shows
  fault windows right above the per-disk I/O tracks;
* :meth:`FaultTimeline.export_metrics` publishes
  ``nemesis.faults_recorded_total{kind=…}`` counters and the
  ``nemesis.active_faults`` gauge (updated per observation time), all
  scrapable live via ``--metrics-port``;
* :meth:`FaultTimeline.to_dict` is the schema-versioned wire form the
  CLI embeds in ``--json`` reports.
"""

from __future__ import annotations

import math

from ..disksim.faultplan import FaultPlan
from ..obs import default_registry
from .schedule import FaultInterval, NemesisSchedule

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "FaultTimeline",
    "timeline_from_plan",
]

#: bump when the ``to_dict`` wire format changes shape
TIMELINE_SCHEMA_VERSION = 1


class FaultTimeline:
    """An append-only record of fault intervals.

    Intervals are recorded whole (:meth:`record`), from a frozen
    schedule or plan.  An interval whose ``end_s`` is infinite is still
    open; queries treat it as extending to infinity.
    """

    def __init__(self) -> None:
        self._intervals: dict[int, FaultInterval] = {}
        self._sorted: tuple[FaultInterval, ...] = ()

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._sorted)

    @property
    def intervals(self) -> tuple[FaultInterval, ...]:
        """The intervals by ``(start_s, fault_id)``, sorted once per record."""
        return self._sorted

    # ------------------------------------------------------------------
    def record(self, interval: FaultInterval) -> FaultInterval:
        """Record an interval; a ``fault_id`` can be recorded only once."""
        if interval.fault_id in self._intervals:
            raise ValueError(f"fault_id {interval.fault_id} already recorded")
        self._intervals[interval.fault_id] = interval
        self._sorted = tuple(
            sorted(
                self._intervals.values(),
                key=lambda iv: (iv.start_s, iv.fault_id),
            )
        )
        return interval

    @classmethod
    def from_schedule(cls, schedule: NemesisSchedule) -> "FaultTimeline":
        """The timeline a schedule *promises* (pre-recorded intervals)."""
        tl = cls()
        for f in schedule.faults:
            tl.record(f)
        return tl

    # ------------------------------------------------------------------
    def active_at(self, t: float) -> tuple[FaultInterval, ...]:
        """Intervals covering time ``t``."""
        return tuple(iv for iv in self.intervals if iv.active_at(t))

    def n_active_at(self, t: float) -> int:
        return len(self.active_at(t))

    # ------------------------------------------------------------------
    # observability exports
    # ------------------------------------------------------------------
    def export_spans(self, group, horizon_s: float | None = None) -> int:
        """Emit one complete span per interval onto a trace group.

        Open intervals are clamped to ``horizon_s`` (required if any
        are open).  Returns the number of spans emitted.
        """
        emitted = 0
        for iv in self.intervals:
            end = iv.end_s
            if math.isinf(end):
                if horizon_s is None:
                    raise ValueError(
                        "open interval needs horizon_s to clamp its span"
                    )
                end = horizon_s
            group.complete(
                iv.kind,
                ts=iv.start_s,
                dur=max(0.0, end - iv.start_s),
                cat="nemesis",
                disk=iv.disk,
                fault_id=iv.fault_id,
                magnitude=iv.magnitude,
            )
            emitted += 1
        return emitted

    def export_metrics(self, registry=None) -> None:
        """Publish per-kind recorded-fault counters on ``registry``."""
        reg = registry if registry is not None else default_registry()
        counter = reg.counter(
            "nemesis.faults_recorded_total", "fault intervals on the timeline"
        )
        for iv in self.intervals:
            counter.inc(1.0, kind=iv.kind)

    def observe_gauge(self, t: float, registry=None, **labels) -> int:
        """Set the currently-active-faults gauge as of time ``t``."""
        reg = registry if registry is not None else default_registry()
        n = self.n_active_at(t)
        reg.gauge(
            "nemesis.active_faults", "faults active at the last observed tick"
        ).set(float(n), **labels)
        return n

    def to_dict(self) -> dict:
        """Schema-versioned wire form for JSON reports."""
        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "n_faults": len(self._intervals),
            "faults": [iv.to_dict() for iv in self.intervals],
        }


def timeline_from_plan(plan: FaultPlan, horizon_s: float) -> FaultTimeline:
    """Project a static :class:`FaultPlan` onto a fault timeline.

    This is what lets the classic ``faultcampaign`` report carry the
    same schema-versioned timeline block a nemesis campaign emits:
    fail-slow windows map directly, scheduled disk deaths open at their
    failure time (clamped to the horizon), a nonzero transient rate
    covers the whole run, and LSE cells/bursts land as a t=0 storm.
    """
    tl = FaultTimeline()
    next_id = 0
    for df in plan.disk_failures:
        tl.record(
            FaultInterval(next_id, "disk-death", df.disk, df.time_s, horizon_s, 1.0)
        )
        next_id += 1
    for fs in plan.fail_slow:
        tl.record(
            FaultInterval(
                next_id,
                "fail-slow",
                fs.disk,
                fs.start_s,
                min(fs.end_s, horizon_s),
                fs.multiplier,
            )
        )
        next_id += 1
    if plan.transient is not None and plan.transient.rate > 0:
        tl.record(
            FaultInterval(
                next_id, "transient-burst", -1, 0.0, horizon_s, plan.transient.rate
            )
        )
        next_id += 1
    n_lses = plan.n_random_lses + len(plan.lse_cells)
    if n_lses:
        tl.record(
            FaultInterval(next_id, "lse-storm", -1, 0.0, horizon_s, float(n_lses))
        )
        next_id += 1
    return tl
