"""Nemesis: continuous stochastic fault orchestration with attribution.

Fixed, replayable fault storms (:mod:`repro.disksim.faultplan`) answer
"what happens under *this* storm?"; a production mirror array faces an
open-ended stochastic stream of hazards.  This package closes that gap
with three cooperating pieces:

* :mod:`repro.nemesis.schedule` — a seeded **scheduler** composing
  hazard classes (disk deaths, fail-slow windows, transient bursts,
  LSE storms) into a frozen schedule over simulated weeks, with
  per-class rate knobs and a hard safety budget;
* :mod:`repro.nemesis.tracker` — an **active-faults timeline**
  recording every activation/deactivation interval as a first-class
  object, exported through the observability layer (spans, gauges,
  Prometheus series);
* :mod:`repro.nemesis.anomaly` — an **anomaly detector** keeping
  rolling quiet-period baselines of latency/throughput/rebuild-progress
  and correlating every excursion against the timeline.

:func:`~repro.nemesis.campaign.run_nemesis_campaign` drives both
arrangements through the identical schedule tick by tick and checks
the campaign invariant — *every excursion overlaps an active fault* —
so an unexplained excursion is a real engine bug, surfaced by the
daemon.  The CLI front-end is ``repro nemesis``; see
``docs/nemesis.md``.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "anomaly": (
            "AnomalyDetector",
            "AttributionReport",
            "Excursion",
            "MetricSpec",
        ),
        "campaign": (
            "ArrangementReport",
            "NemesisConfig",
            "NemesisReport",
            "TickSample",
            "run_nemesis_campaign",
        ),
        "schedule": (
            "FAULT_KINDS",
            "FaultInterval",
            "HazardRates",
            "NemesisSchedule",
            "build_schedule",
        ),
        "tracker": ("FaultTimeline", "timeline_from_plan"),
    },
)

__all__ = [
    # schedule
    "FAULT_KINDS",
    "HazardRates",
    "FaultInterval",
    "NemesisSchedule",
    "build_schedule",
    # tracker
    "FaultTimeline",
    "timeline_from_plan",
    # anomaly
    "MetricSpec",
    "Excursion",
    "AttributionReport",
    "AnomalyDetector",
    # campaign
    "NemesisConfig",
    "TickSample",
    "ArrangementReport",
    "NemesisReport",
    "run_nemesis_campaign",
]
