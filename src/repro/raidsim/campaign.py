"""Fault-injection campaigns: both arrangements under the same storm.

The paper's experiments rebuild under *clean* conditions — one failed
disk, perfectly healthy survivors.  Real rebuild windows are nastier:
latent sector errors surface exactly when the redundancy is thinnest,
drives go slow before they go dead, and the classic nightmare is a
*second* whole-disk failure while the first rebuild is still running.

A campaign subjects the traditional and the shifted arrangement to the
**identical** seeded :class:`~repro.disksim.faultplan.FaultPlan` — same
LSE burst, same fail-slow drive, same mid-rebuild disk death at the
same simulated instant — and compares what the user sees: how many
reads were served, how late, and how much data survived.  Because both
the fault schedule and the event engine are deterministic, a campaign
is a reproducible experiment, not an anecdote.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..core.layouts import Layout
from ..core.registry import LAYOUTS, comparison_pair
from ..disksim.array import DEFAULT_ELEMENT_SIZE
from ..disksim.faultplan import FaultPlan
from ..disksim.scheduler import PriorityScheduler
from ..obs import (
    default_recorder,
    default_registry,
    default_tracer,
    scoped_recorder,
    scoped_registry,
)
from ..parallel import parallel_map
from ..workloads.generator import UserRead, user_read_stream
from ..workloads.openloop import RebuildThrottle, SLOAccountant
from .controller import FaultStats, RaidController, RebuildResult, RetryPolicy
from .reconstruction import OnlineReconstruction, OnlineResult

__all__ = [
    "CampaignRun",
    "CampaignComparison",
    "SweepPoint",
    "SweepResult",
    "default_fault_plan",
    "clean_rebuild_makespan",
    "scenario_window_s",
    "run_scenario",
    "run_campaign",
    "compare_arrangements",
    "derive_sweep_seeds",
    "compare_sweep",
]


@dataclass(frozen=True)
class CampaignRun:
    """One arrangement's fate under a fault campaign."""

    layout_name: str
    online: OnlineResult
    #: user reads answered without an unrecovered error, as a fraction
    availability: float
    #: stripe-columns that survived (1.0 = no data loss)
    data_survival: float

    @property
    def rebuild(self) -> RebuildResult:
        return self.online.rebuild

    @property
    def fault_stats(self) -> FaultStats:
        assert self.online.fault_stats is not None
        return self.online.fault_stats

    def to_dict(self) -> dict:
        """The ``--json`` record; zero-sample latency aggregates (NaN)
        become ``None``."""
        import dataclasses

        from ..obs import finite

        r = self.rebuild
        return {
            "layout": self.layout_name,
            "availability": self.availability,
            "data_survival": self.data_survival,
            "rebuild": {
                "makespan_s": r.makespan_s,
                "verified": r.verified,
                "aborted": r.aborted,
                "bytes_read": r.bytes_read,
                "bytes_written": r.bytes_written,
            },
            "user_reads": {
                "served": self.online.n_user_reads,
                "failed": self.online.failed_user_reads,
                "mean_latency_s": finite(self.online.mean_user_latency_s),
                "p95_latency_s": finite(self.online.p95_user_latency_s),
            },
            "fault_stats": dataclasses.asdict(self.fault_stats),
        }


@dataclass(frozen=True)
class CampaignComparison:
    """Traditional vs shifted arrangement under the identical fault plan."""

    traditional: CampaignRun
    shifted: CampaignRun

    @property
    def availability_delta(self) -> float:
        """Shifted minus traditional served-read fraction."""
        return self.shifted.availability - self.traditional.availability

    @property
    def latency_speedup(self) -> float:
        """Traditional over shifted mean user latency (>1 favours shifted).

        ``inf`` when the shifted side's mean is zero (it served for
        free); ``NaN`` when either side served no reads at all, since
        zero-sample latency means are ``NaN`` and no ratio is defined.
        Text output renders these as bare ``inf``/``nan``; ``--json``
        coerces them to ``null`` (:func:`repro.obs.finite`).
        """
        return _ratio(
            self.traditional.online.mean_user_latency_s,
            self.shifted.online.mean_user_latency_s,
        )

    @property
    def makespan_speedup(self) -> float:
        """Traditional over shifted rebuild makespan (>1 favours shifted)."""
        return _ratio(
            self.traditional.rebuild.makespan_s, self.shifted.rebuild.makespan_s
        )


def _ratio(baseline: float, variant: float) -> float:
    """``baseline / variant`` for a comparison (>1 favours the variant):
    ``NaN`` when either side measured nothing, ``inf`` when the
    variant's figure is zero."""
    if math.isnan(baseline) or math.isnan(variant):
        return float("nan")
    if variant <= 0:
        return float("inf")
    return baseline / variant


def clean_rebuild_makespan(
    layout: Layout,
    failed_disks=(0,),
    n_stripes: int = 12,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    payload_bytes: int = 16,
    window: int = 4,
) -> float:
    """Makespan of a fault-free rebuild — the campaign's time yardstick.

    Scheduled mid-rebuild failures are expressed as a *fraction* of
    this dry-run makespan, so "a second disk dies halfway through"
    means the same thing on both arrangements.
    """
    ctrl = RaidController(
        layout,
        n_stripes=n_stripes,
        element_size=element_size,
        payload_bytes=payload_bytes,
        # the sizing dry-run must not leak into a --trace-out trace
        tracer=False,
    )
    return ctrl.rebuild(failed_disks, window=window, verify=False).makespan_s


def default_fault_plan(
    n_disks: int,
    seed: int = 2012,
    lse_burst: int = 4,
    fail_slow_disk: int | None = None,
    fail_slow_multiplier: float = 4.0,
    second_failure_disk: int | None = None,
    second_failure_time_s: float | None = None,
    transient_rate: float = 0.05,
) -> FaultPlan:
    """The walkthrough storm: LSE burst + fail-slow + mid-rebuild death.

    ``fail_slow_disk`` defaults to the last disk of the array and
    ``second_failure_disk`` to the second-to-last; pass explicit ids
    (or ``second_failure_time_s=None`` to skip the second failure).  A
    transient rate of 0, a burst of 0 and a fail-slow multiplier of 1
    each leave that fault out.
    """
    if lse_burst < 0:
        raise ValueError(f"LSE burst must be at least 0, got {lse_burst}")
    if not transient_rate >= 0:  # NaN included
        raise ValueError(f"transient rate must be at least 0, got {transient_rate}")
    if not fail_slow_multiplier >= 1.0:
        raise ValueError(
            f"fail-slow multiplier must be at least 1, got {fail_slow_multiplier}"
        )
    plan = FaultPlan(seed=seed)
    if transient_rate > 0:
        plan = plan.with_transients(rate=transient_rate)
    if lse_burst > 0:
        plan = plan.with_lse_burst(lse_burst)
    if fail_slow_disk is None:
        fail_slow_disk = n_disks - 1
    if fail_slow_multiplier > 1.0:
        plan = plan.with_fail_slow(fail_slow_disk, fail_slow_multiplier)
    if second_failure_time_s is not None:
        if second_failure_disk is None:
            second_failure_disk = n_disks - 2
        plan = plan.with_disk_failure(second_failure_disk, second_failure_time_s)
    return plan


def scenario_window_s(layouts, factor: float, **sizing) -> float:
    """The shared read window: ``factor`` × the slowest clean rebuild.

    Sized once for a whole roster (a comparison pair, a leaderboard),
    so every member faces the identical arrival stream and no member's
    window ends before its rebuild does.  ``sizing`` is passed to
    :func:`clean_rebuild_makespan`.
    """
    return factor * max(
        clean_rebuild_makespan(layout, **sizing) for layout in layouts
    )


#: the serve and leaderboard arrays: stripes rebuilt 4 at a time, each
#: 4 MB element carrying a 16-byte content payload
SCENARIO_WINDOW = 4
SCENARIO_PAYLOAD_BYTES = 16


def _geometry(config) -> dict:
    """The :func:`run_scenario` array keywords (and window sizing) of a
    :class:`~repro.raidsim.serve.ServeConfig` or
    :class:`~repro.raidsim.leaderboard.LeaderboardConfig`."""
    return dict(
        failed_disks=(config.failed_disk,),
        n_stripes=config.n_stripes,
        element_size=DEFAULT_ELEMENT_SIZE,
        payload_bytes=SCENARIO_PAYLOAD_BYTES,
        window=SCENARIO_WINDOW,
    )


def run_scenario(
    layout: Layout,
    arrivals: list[UserRead],
    *,
    failed_disks,
    n_stripes: int,
    element_size: int,
    payload_bytes: int,
    window: int,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    throttle: RebuildThrottle | None = None,
    slo: SLOAccountant | None = None,
    tracer=None,
) -> CampaignRun:
    """One layout through one scenario: rebuild while serving reads.

    The runner behind every tier: serve, leaderboard, fault campaigns
    and nemesis probes differ only in what they pass here.  A fresh
    priority-scheduled controller (``fault_plan`` armed, ``tracer``
    as for :class:`RaidController`) rebuilds ``failed_disks`` on-line
    while ``arrivals`` fire on the simulated clock; ``failed_disks=()``
    serves them on a healthy array.  ``throttle`` is ``None`` or a
    rebuild-rate policy (see :meth:`RaidController.rebuild`).
    ``slo`` is the run's per-read ledger, flushed into its registry
    before this returns; ``None`` keeps a silent one.  Availability
    derives from that ledger (through
    :attr:`OnlineResult.unavailability`), data survival from the
    rebuild's lost columns.
    """
    ctrl = RaidController(
        layout,
        n_stripes=n_stripes,
        element_size=element_size,
        scheduler_factory=PriorityScheduler,
        payload_bytes=payload_bytes,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        tracer=tracer,
    )
    online = OnlineReconstruction(
        ctrl, failed_disks, arrivals, window=window, throttle=throttle, ledger=slo
    ).run()
    if slo is not None:
        slo.flush()
    lost = len(online.fault_stats.lost_columns)
    return CampaignRun(
        layout_name=layout.name,
        online=online,
        availability=1.0 - online.unavailability,
        data_survival=1.0 - lost / (layout.n_disks * n_stripes),
    )


def run_campaign(
    layout: Layout,
    fault_plan: FaultPlan,
    failed_disks=(0,),
    n_stripes: int = 12,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    payload_bytes: int = 16,
    window: int = 4,
    retry_policy: RetryPolicy | None = None,
    user_read_rate_per_s: float = 30.0,
    user_read_duration_s: float | None = None,
    user_read_seed: int = 99,
    reads: list[UserRead] | None = None,
) -> CampaignRun:
    """One arrangement through one campaign: rebuild under fire.

    Runs an on-line reconstruction of ``failed_disks`` with the fault
    plan active and a Poisson user-read stream on top.  Reconstruction
    is byte-verified where recoverable; unrecoverable columns are
    counted, not raised.  ``reads``, when given, is that stream, and
    the ``user_read_*`` keywords are not used; otherwise it is drawn
    from them.
    """
    sizing = dict(
        failed_disks=failed_disks,
        n_stripes=n_stripes,
        element_size=element_size,
        payload_bytes=payload_bytes,
        window=window,
    )
    if reads is None:
        if user_read_duration_s is None:
            user_read_duration_s = scenario_window_s([layout], 1.5, **sizing)
        reads = user_read_stream(
            layout.n,
            n_stripes,
            duration_s=user_read_duration_s,
            rate_per_s=user_read_rate_per_s,
            seed=user_read_seed,
        )
    return run_scenario(
        layout, reads, fault_plan=fault_plan, retry_policy=retry_policy, **sizing
    )


def _read_window_s(layouts, campaign_kwargs: dict) -> float:
    """1.5 × the slowest clean rebuild of ``layouts``, under the array
    geometry that the :func:`run_campaign` keywords ``campaign_kwargs`` set."""
    sizing = {
        k: campaign_kwargs[k]
        for k in ("failed_disks", "n_stripes", "element_size",
                  "payload_bytes", "window")
        if k in campaign_kwargs
    }
    return scenario_window_s(layouts, 1.5, **sizing)


def compare_arrangements(
    traditional: Layout,
    shifted: Layout,
    fault_plan: FaultPlan,
    *,
    n_stripes: int = 12,
    user_read_rate_per_s: float = 30.0,
    user_read_duration_s: float | None = None,
    user_read_seed: int = 99,
    **campaign_kwargs,
) -> CampaignComparison:
    """Both arrangements through the identical seeded campaign.

    The frozen plan is *activated* independently per run, so both
    arrays replay the same fault schedule from the same seed — the
    arrangements differ, the storm does not.  The read stream is drawn
    once, with :func:`run_campaign`'s defaults, and served to both
    runs; unless ``user_read_duration_s`` is given, its window is sized
    off the slower arrangement's clean rebuild.  Both layouts must have
    the same ``n``, as every declared comparison pair does.
    """
    if traditional.n != shifted.n:
        raise ValueError(
            f"a comparison needs layouts of one n, got {traditional.n} and {shifted.n}"
        )
    campaign_kwargs["n_stripes"] = n_stripes
    if user_read_duration_s is None:
        user_read_duration_s = _read_window_s(
            (traditional, shifted), campaign_kwargs
        )
    reads = user_read_stream(
        traditional.n,
        n_stripes,
        duration_s=user_read_duration_s,
        rate_per_s=user_read_rate_per_s,
        seed=user_read_seed,
    )
    return CampaignComparison(
        traditional=run_campaign(
            traditional, fault_plan, reads=reads, **campaign_kwargs
        ),
        shifted=run_campaign(shifted, fault_plan, reads=reads, **campaign_kwargs),
    )


# ----------------------------------------------------------------------
# Seeded sweeps: many storms, one verdict
# ----------------------------------------------------------------------

def derive_sweep_seeds(
    root_seed: int, n_seeds: int
) -> tuple[tuple[int, int], ...]:
    """Per-point ``(fault_seed, user_read_seed)`` pairs from one root.

    Each sweep point gets an independent :class:`numpy.random.SeedSequence`
    child of the root; the pair is a pure function of
    ``(root_seed, index)``, so a worker process can be handed the bare
    integers and still produce the exact stream the serial run would —
    this is what makes ``jobs=1`` and ``jobs=N`` sweeps bit-identical.
    """
    children = np.random.SeedSequence(root_seed).spawn(n_seeds)
    pairs = []
    for child in children:
        state = child.generate_state(2, dtype=np.uint64)
        pairs.append((int(state[0]), int(state[1])))
    return tuple(pairs)


@dataclass(frozen=True)
class SweepPoint:
    """One seeded comparison inside a sweep.

    The observability payloads (``metrics``, ``wall_s``) are excluded
    from equality: point identity is the seeded simulation outcome, and
    the jobs=1 vs jobs=N bit-identity regression test must keep holding
    with observability on even though worker wall times differ.
    """

    seed_index: int
    fault_seed: int
    user_read_seed: int
    comparison: CampaignComparison
    #: the worker's metrics snapshot for this point (see
    #: :meth:`repro.obs.MetricsRegistry.snapshot`); empty when
    #: observability is disabled
    metrics: dict = field(default_factory=dict, compare=False)
    #: the worker's flight-recorder snapshot (windowed simulated-time
    #: timeseries; see :meth:`repro.obs.TimelineRecorder.snapshot`);
    #: empty when no recorder is installed in the parent
    timeseries: dict = field(default_factory=dict, compare=False)
    #: worker-side wall-clock seconds spent on this point
    wall_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SweepResult:
    """A family's traditional-vs-shifted verdict over many seeded storms."""

    family: str
    n: int
    root_seed: int
    points: tuple[SweepPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def mean_availability_delta(self) -> float:
        return float(
            np.mean([p.comparison.availability_delta for p in self.points])
        )

    @property
    def mean_latency_speedup(self) -> float:
        """Mean over points with finite speedups (inf = shifted served free)."""
        finite = [
            p.comparison.latency_speedup
            for p in self.points
            if math.isfinite(p.comparison.latency_speedup)
        ]
        return float(np.mean(finite)) if finite else float("inf")

    @property
    def worst_data_survival(self) -> tuple[float, float]:
        """(traditional, shifted) minimum data survival across the sweep."""
        return (
            min(p.comparison.traditional.data_survival for p in self.points),
            min(p.comparison.shifted.data_survival for p in self.points),
        )

    @property
    def shifted_wins(self) -> int:
        """Points where the shifted arrangement served strictly more reads."""
        return sum(
            1 for p in self.points if p.comparison.availability_delta > 0
        )


@lru_cache(maxsize=1)
def _sweep_layouts(family: str, n: int) -> tuple[Layout, Layout]:
    """A family's (baseline, variant) pair at ``n``, one per process.

    Every sweep point of a process runs on this one pair (the latest
    ``(family, n)`` asked for: a sweep asks for one), so its
    controllers start from the templates its first point left on the
    layouts (see :func:`~repro.raidsim.controller._template`) instead
    of building cold ones.  A template is a pure function of its key,
    so reuse changes no result.
    """
    baseline_name, variant_name = comparison_pair(family)
    return LAYOUTS[baseline_name](n), LAYOUTS[variant_name](n)


def _sweep_point(task) -> SweepPoint:
    """Pool worker: run one point from plain data.

    Module-level (picklable) and handed only plain data; the layouts and
    the fault plan are constructed inside the worker so nothing
    stateful crosses the process boundary.
    """
    (
        family,
        n,
        index,
        fault_seed,
        user_seed,
        plan_kwargs,
        campaign_kwargs,
        record_ts,
        ts_window_s,
    ) = task
    traditional, shifted = _sweep_layouts(family, n)
    plan = default_fault_plan(traditional.n_disks, seed=fault_seed, **plan_kwargs)
    # each point runs under its own metrics scope (and, when the parent
    # has a flight recorder, its own recorder scope) so its snapshots
    # can be shipped back (pickled, across the process boundary) and
    # merged by the parent in deterministic seed order
    t0 = time.perf_counter()
    with (
        scoped_registry() as reg,
        scoped_recorder(enabled=record_ts, window_s=ts_window_s) as rec,
    ):
        comparison = compare_arrangements(
            traditional,
            shifted,
            plan,
            user_read_seed=user_seed,
            **campaign_kwargs,
        )
        snap = reg.snapshot()
        ts_snap = rec.snapshot() if rec is not None else {}
    return SweepPoint(
        seed_index=index,
        fault_seed=fault_seed,
        user_read_seed=user_seed,
        comparison=comparison,
        metrics=snap,
        timeseries=ts_snap,
        wall_s=time.perf_counter() - t0,
    )


def compare_sweep(
    family: str,
    n: int,
    n_seeds: int = 16,
    root_seed: int = 2012,
    jobs: int | None = None,
    plan_kwargs: dict | None = None,
    pool=None,
    **campaign_kwargs,
) -> SweepResult:
    """Baseline vs variant over ``n_seeds`` independent storms.

    ``family`` is a comparison family declared in
    :data:`repro.core.registry.COMPARISONS` (the paper's
    traditional-vs-shifted trio plus the competitor pairings such as
    ``declustered`` and ``rebuild-optimal``).  Each point derives its fault
    and user-read seeds from a :class:`numpy.random.SeedSequence` child
    of ``root_seed`` (see :func:`derive_sweep_seeds`) and runs the full
    :func:`compare_arrangements` under its own storm.  ``plan_kwargs``
    feed :func:`default_fault_plan`; everything else is passed to
    :func:`run_campaign`.

    ``jobs`` fans points across a process pool
    (:func:`repro.parallel.parallel_map` conventions: ``None``/1 serial,
    0 = all cores); passing ``pool`` (a
    :class:`repro.parallel.WorkerPool`) reuses its persistent workers
    across sweeps instead.  Results are merged in seed order and are
    bit-identical to the serial run — there is a regression test
    pinning that.  The user-read window is sized once, here, for every
    point: the storms differ from seed to seed, the clean rebuilds the
    window is sized off do not.
    """
    layouts = _sweep_layouts(family, n)  # validate up front, before forking
    if campaign_kwargs.get("user_read_duration_s") is None:
        campaign_kwargs["user_read_duration_s"] = _read_window_s(
            layouts, campaign_kwargs
        )
    seeds = derive_sweep_seeds(root_seed, n_seeds)
    # workers record timeseries exactly when the parent has a flight
    # recorder installed, at the parent's window width — the flag (not
    # ambient state) travels in the task so serial and pool execution
    # make the identical decision
    recorder = default_recorder()
    record_ts = recorder is not None
    ts_window_s = recorder.window_s if recorder is not None else 0.1
    tasks = [
        (
            family,
            n,
            index,
            fault_seed,
            user_seed,
            dict(plan_kwargs or {}),
            dict(campaign_kwargs),
            record_ts,
            ts_window_s,
        )
        for index, (fault_seed, user_seed) in enumerate(seeds)
    ]
    # fold worker snapshots back *as points complete* (still in seed
    # order — submission-order consumption): a live /metrics scrape
    # mid-sweep sees counters climb point by point, and merge stays
    # deterministic across jobs settings (merge is commutative for
    # counters/histograms; seed order keeps last-write-wins gauges
    # stable).  A streaming default tracer treats each finished point
    # as a phase boundary and drains its buffer.
    reg = default_registry()
    on_point = None
    if reg.enabled:
        wall = reg.histogram(
            "sweep.point_wall_s", "worker wall-clock seconds per sweep point"
        ).labels()
        size = reg.histogram(
            "sweep.point_pickle_bytes",
            "pickled result size per sweep point (pool return traffic)",
            buckets=(1e3, 1e4, 1e5, 1e6, 1e7),
        ).labels()
        done = reg.counter(
            "sweep.points_completed", "sweep points merged back so far"
        ).labels()

        def on_point(p: SweepPoint) -> None:
            reg.merge(p.metrics)
            if recorder is not None and p.timeseries:
                # submission-order consumption makes this fold
                # deterministic: same snapshots, same order, same
                # float accumulation — jobs=1 == jobs=N bit for bit
                recorder.merge(p.timeseries)
            wall.observe(p.wall_s)
            size.observe(len(pickle.dumps(p)))
            done.inc()
            tracer = default_tracer()
            if tracer is not None:
                tracer.phase_boundary()

    points = parallel_map(_sweep_point, tasks, jobs=jobs, pool=pool, on_result=on_point)
    return SweepResult(
        family=family, n=n, root_seed=root_seed, points=tuple(points)
    )
