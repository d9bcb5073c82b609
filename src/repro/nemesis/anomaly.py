"""Metric excursions and their attribution to active faults.

The :class:`AnomalyDetector` watches a handful of campaign metrics
(user latency, read throughput, availability, rebuild progress), keeps
a quiet-period :class:`~repro.obs.baseline.RollingBaseline` per metric,
and flags samples that excurse past the combined relative/z-score
thresholds.  Every excursion is immediately **correlated against the
active-fault timeline**: the fault intervals covering the sample time
become the excursion's attribution set.  Each probe tick is an
independent simulation, so no fault's queueing outlives its tick and
the window needs no padding.

The campaign-level invariant is one-directional: *every excursion must
overlap at least one active fault*.  Faults are allowed to pass
unnoticed (a fail-slow on an idle disk hurts nobody); an excursion with
an empty attribution set means the detector saw the engine misbehave
while nothing was injected — exactly the kind of latent bug a nemesis
daemon exists to surface — and fails the campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..obs import default_registry
from ..obs.baseline import RollingBaseline
from .tracker import FaultTimeline

__all__ = [
    "MetricSpec",
    "Excursion",
    "AttributionReport",
    "AnomalyDetector",
]


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is baselined and judged.

    ``direction`` names the bad side: ``"high"`` for latency-like
    series, ``"low"`` for throughput-like ones.  The baseline is a
    :class:`~repro.obs.baseline.RollingBaseline` over the last
    ``window`` quiet samples, judging once ``min_samples`` arrived.
    """

    name: str
    direction: str = "high"
    rel_threshold: float = 0.5
    z_threshold: float = 4.0
    window: int = 64
    min_samples: int = 6

    def __post_init__(self) -> None:
        if self.direction not in ("high", "low"):
            raise ValueError(f"direction must be 'high'/'low', got {self.direction!r}")
        if self.rel_threshold <= 0:
            raise ValueError("rel_threshold must be positive")


@dataclass(frozen=True)
class Excursion:
    """One flagged sample, with its attribution set."""

    t_s: float
    metric: str
    value: float
    baseline_mean: float
    baseline_std: float
    #: fault ids of timeline intervals overlapping the sample
    attributed_to: tuple[int, ...]
    #: fault kinds of those intervals, for humans
    attributed_kinds: tuple[str, ...] = ()

    @property
    def explained(self) -> bool:
        return bool(self.attributed_to)

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "metric": self.metric,
            "value": self.value,
            "baseline_mean": self.baseline_mean,
            "baseline_std": self.baseline_std,
            "attributed_to": list(self.attributed_to),
            "attributed_kinds": list(self.attributed_kinds),
            "explained": self.explained,
        }


@dataclass(frozen=True)
class AttributionReport:
    """The detector's verdict over one campaign."""

    n_samples: int
    n_quiet_samples: int
    excursions: tuple[Excursion, ...] = ()

    @property
    def n_excursions(self) -> int:
        return len(self.excursions)

    @property
    def unexplained(self) -> tuple[Excursion, ...]:
        return tuple(e for e in self.excursions if not e.explained)

    @property
    def attribution_coverage(self) -> float:
        """Fraction of excursions overlapping an active fault (1.0 if none)."""
        if not self.excursions:
            return 1.0
        return 1.0 - len(self.unexplained) / len(self.excursions)

    def assert_invariant(self) -> None:
        """Raise if any excursion lacks an active-fault overlap."""
        bad = self.unexplained
        if bad:
            lines = ", ".join(
                f"{e.metric}={e.value:.4g}@t={e.t_s:.0f}s" for e in bad[:5]
            )
            raise AssertionError(
                f"{len(bad)} excursion(s) overlap no active fault: {lines}"
            )

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_quiet_samples": self.n_quiet_samples,
            "n_excursions": self.n_excursions,
            "n_unexplained": len(self.unexplained),
            "attribution_coverage": self.attribution_coverage,
            "excursions": [e.to_dict() for e in self.excursions],
        }


class AnomalyDetector:
    """Rolling-baseline excursion detection with fault attribution.

    Feed it ``(t, metric, value)`` samples via :meth:`observe`; quiet
    samples (no fault active, no excursion flagged) grow the baselines,
    so a fault can never normalise its own damage.  ``metrics`` is the
    watchlist (the campaign's is :data:`~repro.nemesis.campaign.METRIC_SPECS`).
    """

    def __init__(
        self,
        timeline: FaultTimeline,
        metrics: tuple[MetricSpec, ...],
        registry=None,
    ) -> None:
        self.timeline = timeline
        self._specs = {m.name: m for m in metrics}
        self._baselines = {
            m.name: RollingBaseline(m.window, m.min_samples) for m in metrics
        }
        self._excursions: list[Excursion] = []
        self._n_samples = 0
        self._n_quiet = 0
        reg = registry if registry is not None else default_registry()
        self._obs_excursions = reg.counter(
            "nemesis.excursions_total", "flagged metric excursions"
        )
        self._obs_unexplained = reg.counter(
            "nemesis.unexplained_excursions_total",
            "excursions overlapping no active fault (invariant violations)",
        )

    def observe(
        self, t_s: float, metric: str, value: float, quiet: bool | None = None
    ) -> Excursion | None:
        """Judge one sample; returns the excursion if one was flagged.

        ``quiet`` overrides the is-anything-active test that gates
        baseline growth — e.g. rebuild progress is baselined against
        other rebuilds, for which "quiet" means "nothing active *but*
        the death under repair".  Attribution always uses the real
        active set.
        """
        spec = self._specs.get(metric)
        if spec is None:
            raise ValueError(f"metric {metric!r} is not on the watchlist")
        baseline = self._baselines[metric]
        self._n_samples += 1
        if math.isnan(value):
            # zero-sample aggregates are NaN by contract ("nothing was
            # measured"): abstain — not an excursion, never baseline food
            return None
        active = self.timeline.active_at(t_s)
        if quiet is None:
            quiet = not active
        if baseline.is_excursion(
            value, spec.rel_threshold, spec.z_threshold, spec.direction
        ):
            exc = Excursion(
                t_s=t_s,
                metric=metric,
                value=value,
                baseline_mean=baseline.mean,
                baseline_std=baseline.std,
                attributed_to=tuple(iv.fault_id for iv in active),
                attributed_kinds=tuple(iv.kind for iv in active),
            )
            self._excursions.append(exc)
            self._obs_excursions.inc(1.0, metric=metric)
            if not exc.explained:
                self._obs_unexplained.inc(1.0, metric=metric)
            return exc
        if quiet:
            self._n_quiet += 1
            baseline.update(value)
        return None

    def baseline(self, metric: str) -> RollingBaseline:
        return self._baselines[metric]

    def report(self) -> AttributionReport:
        return AttributionReport(
            n_samples=self._n_samples,
            n_quiet_samples=self._n_quiet,
            excursions=tuple(self._excursions),
        )
