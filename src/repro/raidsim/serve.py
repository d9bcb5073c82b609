"""The serve tier: rebuild under open-loop traffic, judged by SLOs.

The fault campaign (:mod:`repro.raidsim.campaign`) asks "how fast does
each arrangement rebuild, and what latency did the probe reads see?".
This tier asks the operator's question instead: *while* the rebuild
runs, an open-loop population of viewers keeps arriving on the wall
clock — what tail latency do they eat, how much goodput survives, and
how much rebuild speed must be sacrificed (via a throttling policy) to
keep the p99 inside the SLO?  Reported per arrangement, because the
paper's whole point is that the shifted arrangement buys this tradeoff
a better exchange rate.

Everything is a pure function of :class:`ServeConfig` — frozen,
picklable, seeded — so two same-config runs are bit-identical and
:func:`compare_serve` can be shipped to a
:class:`~repro.core.parallel.WorkerPool` worker as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.registry import build_layout, comparison_pair
from ..obs import scoped_recorder
from ..workloads.generator import UserRead
from ..workloads.openloop import (
    DiurnalCurve,
    SLOAccountant,
    SLOSummary,
    TenantSpec,
    make_throttle,
    open_arrivals,
)
from .campaign import _geometry, _ratio, run_scenario, scenario_window_s

__all__ = [
    "ServeConfig",
    "ServeResult",
    "ServeComparison",
    "serve_arrivals",
    "run_serve",
    "compare_serve",
]

#: flight-recorder windows per serve duration
TS_WINDOWS = 96


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serve run depends on — the whole experiment, frozen.

    ``tenants`` overrides the single-tenant shorthand fields
    (``rate_per_s`` / ``process`` / ``zipf_s``); leave it ``None`` to
    serve one default tenant built from those.  ``diurnal_amplitude``
    > 0 adds a sinusoidal load curve whose period is the serve window
    (one full peak-and-trough per run).  ``throttle`` is a
    :func:`~repro.workloads.openloop.make_throttle` spec string, kept
    as a string precisely so the config stays picklable — each run
    builds its own fresh policy instance.
    """

    family: str = "mirror"
    n: int = 5
    n_stripes: int = 12
    failed_disk: int = 0
    seed: int = 2012
    rate_per_s: float = 40.0
    process: str = "poisson"
    zipf_s: float = 0.0
    diurnal_amplitude: float = 0.0
    tenants: tuple[TenantSpec, ...] | None = None
    duration_factor: float = 1.5
    deadline_s: float | None = None
    throttle: str = "none"

    def __post_init__(self) -> None:
        if self.duration_factor <= 0:
            raise ValueError(
                f"duration_factor must be positive, got {self.duration_factor}"
            )
        # fail fast on a bad spec string — before any simulation runs
        make_throttle(self.throttle)

    def tenant_mix(self) -> tuple[TenantSpec, ...]:
        """The effective mix: explicit tenants, or the shorthand one."""
        if self.tenants:
            return tuple(self.tenants)
        return (
            TenantSpec(
                "default",
                rate_per_s=self.rate_per_s,
                process=self.process,
                zipf_s=self.zipf_s,
            ),
        )


@dataclass(frozen=True)
class ServeResult:
    """One arrangement's rebuild-under-traffic outcome."""

    layout_name: str
    slo: SLOSummary
    rebuild_makespan_s: float
    rebuild_verified: bool
    n_arrivals: int
    degraded_reads: int
    failed_reads: int
    #: fraction of completed reads that did not fail outright
    availability: float
    throttle: str
    #: flight-recorder snapshot ({} when observability is off) —
    #: per-tenant latency, queue depth, rebuild progress/throughput
    #: windows over the simulated clock
    timeseries: dict = field(default_factory=dict, compare=False)
    #: fault-interval overlay bands for dashboard rendering
    overlays: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class ServeComparison:
    """Traditional vs shifted under the identical arrival stream."""

    traditional: ServeResult
    shifted: ServeResult

    @property
    def p99_ratio(self) -> float:
        """Traditional p99 over shifted p99 (>1 favours shifted).

        ``NaN`` when either side served nothing (the zero-sample
        contract), ``inf`` when shifted's p99 is exactly zero.
        """
        return _ratio(self.traditional.slo.p99_s, self.shifted.slo.p99_s)

    @property
    def makespan_speedup(self) -> float:
        """Traditional over shifted rebuild makespan (>1 favours shifted)."""
        return _ratio(
            self.traditional.rebuild_makespan_s, self.shifted.rebuild_makespan_s
        )


def _window_s(config: ServeConfig) -> float:
    """The serve window: ``duration_factor`` × the slower side's clean rebuild."""
    layouts = [build_layout(name, config.n) for name in comparison_pair(config.family)]
    return scenario_window_s(layouts, config.duration_factor, **_geometry(config))


def serve_arrivals(
    config: ServeConfig, duration_s: float | None = None
) -> list[UserRead]:
    """The config's arrival stream — shared verbatim by both arrangements."""
    if duration_s is None:
        duration_s = _window_s(config)
    diurnal = None
    if config.diurnal_amplitude > 0:
        diurnal = DiurnalCurve(config.diurnal_amplitude, duration_s)
    return open_arrivals(
        config.n,
        config.n_stripes,
        duration_s,
        config.tenant_mix(),
        diurnal=diurnal,
        seed=config.seed,
    )


def _disk_death_band(disk: int, makespan_s: float) -> dict:
    """The failed disk's overlay band, from 0 until the rebuild ends.

    Plain data in simulated seconds, the shape ``repro.obs.report``
    draws as a translucent rectangle behind the latency and progress
    curves.
    """
    return {
        "t0": 0.0,
        "t1": max(0.0, makespan_s),
        "kind": "disk-death",
        "disk": disk,
        "label": f"disk-death (disk {disk})",
    }


def run_serve(
    layout_name: str,
    arrivals: list[UserRead],
    duration_s: float,
    config: ServeConfig,
) -> ServeResult:
    """One arrangement through the open-loop serve scenario.

    Runs :func:`~repro.raidsim.campaign.run_scenario` with a fresh
    throttle policy (stateful — never share one across arrangements)
    and a fresh :class:`~repro.workloads.openloop.SLOAccountant`, the
    arrivals firing open-loop on the simulated clock.

    The whole run executes under a scoped flight recorder (window
    width ``duration_s / TS_WINDOWS``; a no-op when observability is
    off), so the result carries the per-tenant latency, queue-depth
    and rebuild-progress trajectories plus the fault-interval overlay
    bands the dashboard report draws.
    """
    with scoped_recorder(window_s=duration_s / TS_WINDOWS) as rec:
        slo = SLOAccountant(deadline_s=config.deadline_s)
        run = run_scenario(
            build_layout(layout_name, config.n),
            arrivals,
            throttle=make_throttle(config.throttle),
            slo=slo,
            **_geometry(config),
        )
        timeseries = rec.snapshot() if rec is not None else {}
    online = run.online
    return ServeResult(
        layout_name=layout_name,
        slo=slo.summary(duration_s),
        rebuild_makespan_s=online.rebuild.makespan_s,
        rebuild_verified=online.rebuild.verified,
        n_arrivals=len(arrivals),
        degraded_reads=online.degraded_reads,
        failed_reads=online.failed_user_reads,
        availability=run.availability,
        throttle=config.throttle,
        timeseries=timeseries,
        overlays=(_disk_death_band(config.failed_disk, online.rebuild.makespan_s),),
    )


def compare_serve(config: ServeConfig) -> ServeComparison:
    """Both arrangements under the identical open-loop storm.

    Module-level and a pure function of the frozen config, so it is
    WorkerPool-safe: a pool worker handed the config reproduces the
    serial run bit for bit.
    """
    duration_s = _window_s(config)
    arrivals = serve_arrivals(config, duration_s)
    baseline_name, variant_name = comparison_pair(config.family)
    return ServeComparison(
        traditional=run_serve(baseline_name, arrivals, duration_s, config),
        shifted=run_serve(variant_name, arrivals, duration_s, config),
    )
