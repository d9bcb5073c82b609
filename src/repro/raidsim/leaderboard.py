"""Cross-layout leaderboard: every registered layout under one storm.

The campaign and serve tiers answer pairwise questions — traditional vs
shifted, baseline vs variant.  The leaderboard asks the operator's
*selection* question: across every layout the registry admits
(:func:`repro.core.registry.leaderboard_layouts`), which arrangement
keeps the most reads flowing while a disk is being rebuilt?

Every layout faces the **identical** seeded scenario: the same
:func:`~repro.raidsim.campaign.default_fault_plan` storm (LSE burst,
fail-slow survivor, transient errors — no second whole-disk death, so
single-fault-tolerant mirrors and double-fault-tolerant codes compete
on the same terms), the same open-loop arrival stream
(:func:`~repro.workloads.openloop.open_arrivals` is a pure function of
``(n, stripes, duration, seed)``, so the byte-for-byte same reads land
at the same simulated instants on every contestant), over the same
serve window (sized off the *slowest* clean rebuild in the roster so
nobody's window ends early).

Everything is a pure function of the frozen :class:`LeaderboardConfig`:
two same-config runs are bit-identical, and ``jobs=1`` vs ``jobs=N``
fan-outs produce the same entries (the window is sized serially in the
parent, each entry runs under its own scoped metrics registry, and no
wall-clock value enters an entry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.registry import LAYOUTS, REGISTRY, build_layout, leaderboard_layouts
from ..obs import scoped_registry
from ..parallel import parallel_map
from ..workloads.openloop import SLOAccountant, TenantSpec, open_arrivals
from .campaign import _geometry, default_fault_plan, run_scenario, scenario_window_s

__all__ = [
    "LeaderboardConfig",
    "LeaderboardEntry",
    "LeaderboardResult",
    "run_leaderboard_entry",
    "run_leaderboard",
]

#: service-time multiplier of the storm's fail-slow survivor
FAIL_SLOW_MULTIPLIER = 4.0


@dataclass(frozen=True)
class LeaderboardConfig:
    """One leaderboard experiment, frozen and picklable.

    ``layouts`` pins an explicit roster (registry names); ``None``
    sweeps everything :func:`~repro.core.registry.leaderboard_layouts`
    admits at this ``n``.  The storm knobs mirror
    :func:`~repro.raidsim.campaign.default_fault_plan` minus the second
    whole-disk failure, which would be unrecoverable for the
    single-fault-tolerant half of the roster and turn the comparison
    into a fault-tolerance quiz instead of an arrangement race.  The
    fail-slow survivor runs at :data:`FAIL_SLOW_MULTIPLIER` times its
    service time, on the serve tier's array
    (:data:`~repro.raidsim.campaign.SCENARIO_WINDOW`,
    :data:`~repro.raidsim.campaign.SCENARIO_PAYLOAD_BYTES`).
    """

    n: int = 5
    n_stripes: int = 12
    seed: int = 7
    failed_disk: int = 0
    rate_per_s: float = 40.0
    duration_factor: float = 1.5
    lse_burst: int = 2
    transient_rate: float = 0.02
    layouts: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.duration_factor <= 0:
            raise ValueError(
                f"duration_factor must be positive, got {self.duration_factor}"
            )
        if self.layouts is not None:
            for name in self.layouts:
                if name not in LAYOUTS:
                    raise ValueError(
                        f"unknown layout {name!r}; choose from "
                        f"{', '.join(sorted(LAYOUTS))}"
                    )

    def layout_names(self) -> tuple[str, ...]:
        """The roster: explicit ``layouts``, or every eligible layout."""
        if self.layouts is not None:
            return tuple(self.layouts)
        return tuple(leaderboard_layouts(self.n))


@dataclass(frozen=True)
class LeaderboardEntry:
    """One layout's outcome under the shared storm + serve mix."""

    layout: str
    description: str
    n_disks: int
    fault_tolerance: int
    storage_efficiency: float
    #: completed user reads that did not fail outright, as a fraction
    availability: float
    rebuild_makespan_s: float
    #: p99 user-read latency in milliseconds; ``NaN`` when nothing served
    degraded_p99_ms: float
    #: stripe-columns that survived the storm (1.0 = no data loss)
    data_survival: float
    served: int
    failed_reads: int
    degraded_reads: int
    rebuild_verified: bool
    rebuild_aborted: bool

    def to_dict(self) -> dict:
        """Plain-dict form; the CLI applies its non-finite -> null rule."""
        from dataclasses import asdict

        return asdict(self)

    @property
    def rank_key(self) -> tuple:
        """Sort key: availability down, then makespan, p99, name up.

        ``NaN`` p99 (nothing served) ranks last among ties; the name
        tiebreak makes the full ordering total and deterministic.
        """
        p99 = self.degraded_p99_ms
        if math.isnan(p99):
            p99 = float("inf")
        return (-self.availability, self.rebuild_makespan_s, p99, self.layout)


def run_leaderboard_entry(
    name: str, config: LeaderboardConfig, duration_s: float
) -> LeaderboardEntry:
    """One layout through the shared scenario: rebuild under fire + load.

    The arrival stream is regenerated here from the config seed (not
    threaded through) so a pool worker handed only ``(name, config,
    duration_s)`` reproduces the serial run bit for bit.
    """
    layout = build_layout(name, config.n)
    plan = default_fault_plan(
        layout.n_disks,
        seed=config.seed,
        lse_burst=config.lse_burst,
        fail_slow_multiplier=FAIL_SLOW_MULTIPLIER,
        second_failure_time_s=None,
        transient_rate=config.transient_rate,
    )
    arrivals = open_arrivals(
        config.n,
        config.n_stripes,
        duration_s,
        (TenantSpec("default", rate_per_s=config.rate_per_s),),
        seed=config.seed,
    )
    slo = SLOAccountant()
    run = run_scenario(layout, arrivals, fault_plan=plan, slo=slo, **_geometry(config))
    online = run.online
    summary = slo.summary(duration_s)
    return LeaderboardEntry(
        layout=name,
        description=REGISTRY[name].description,
        n_disks=layout.n_disks,
        fault_tolerance=layout.fault_tolerance,
        storage_efficiency=layout.storage_efficiency(),
        availability=run.availability,
        rebuild_makespan_s=online.rebuild.makespan_s,
        degraded_p99_ms=summary.p99_s * 1e3,
        data_survival=run.data_survival,
        served=online.n_user_reads,
        failed_reads=online.failed_user_reads,
        degraded_reads=online.degraded_reads,
        rebuild_verified=online.rebuild.verified,
        rebuild_aborted=online.rebuild.aborted,
    )


def _entry_point(task) -> LeaderboardEntry:
    """Pool worker: one roster member, metrics-isolated.

    Module-level (picklable), and scoped so an entry's instruments
    never leak into the parent registry — serial and pooled runs then
    make the identical (non-)contribution to ambient observability.
    """
    name, config, duration_s = task
    with scoped_registry():
        return run_leaderboard_entry(name, config, duration_s)


@dataclass(frozen=True)
class LeaderboardResult:
    """Every roster member's outcome, plus the derived ranking."""

    config: LeaderboardConfig
    duration_s: float
    #: entries in roster order (stable registry registration order)
    entries: tuple[LeaderboardEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def ranked(self) -> tuple[LeaderboardEntry, ...]:
        """Entries best-first by availability / makespan / p99 / name."""
        return tuple(sorted(self.entries, key=lambda e: e.rank_key))

    @property
    def ranking(self) -> tuple[str, ...]:
        """Layout names, best first."""
        return tuple(e.layout for e in self.ranked())

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "n_stripes": self.config.n_stripes,
            "seed": self.config.seed,
            "duration_s": self.duration_s,
            "ranking": list(self.ranking),
            "entries": [e.to_dict() for e in self.ranked()],
        }


def run_leaderboard(
    config: LeaderboardConfig,
    jobs: int | None = None,
    pool=None,
) -> LeaderboardResult:
    """The full sweep: every roster member under the identical scenario.

    The serve window is sized serially in the parent (one yardstick for
    everyone), then entries fan across ``jobs`` processes — or a
    persistent :class:`~repro.parallel.WorkerPool` — with results
    merged in roster order, bit-identical to the serial run.
    """
    names = config.layout_names()
    if not names:
        raise ValueError(
            f"no registered layout is leaderboard-eligible at n={config.n}"
        )
    duration_s = scenario_window_s(
        [build_layout(name, config.n) for name in names],
        config.duration_factor,
        **_geometry(config),
    )
    tasks = [(name, config, duration_s) for name in names]
    entries = parallel_map(_entry_point, tasks, jobs=jobs, pool=pool)
    return LeaderboardResult(
        config=config, duration_s=duration_s, entries=tuple(entries)
    )
