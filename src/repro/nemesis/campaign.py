"""The nemesis campaign loop: simulated weeks of probes under the storm.

Continuously simulating a week of disk traffic event-by-event is not
tractable in a discrete-event simulator written in Python — and not
necessary.  The campaign instead *samples* the week: the horizon is cut
into ticks (default one simulated hour) and each tick runs a small,
independent **probe simulation** — a fresh controller facing exactly
the faults the schedule says are active at that instant:

* no disk death active → a Poisson user-read probe measuring latency,
  throughput and served fraction;
* a death active → an on-line reconstruction probe (rebuild plus user
  reads), additionally measuring rebuild progress.

Each probe is a pure function of ``(config, schedule, arrangement,
tick)`` — its fault plan and read stream derive from per-tick
:class:`numpy.random.SeedSequence` spawns — which buys the three
properties a long-running nemesis daemon needs for free:

* **bit-reproducibility**: same seed → identical samples, hence an
  identical report (pinned by a digest over the sample stream);
* **checkpoint-resume**: completed ticks are replayed from the
  checkpoint file, the rest are recomputed; a campaign killed mid-week
  resumes to the very same final report;
* **identical storms across arrangements**: both arrangements consume
  the same frozen :class:`~repro.nemesis.schedule.NemesisSchedule`.

Every tick's samples feed the
:class:`~repro.nemesis.anomaly.AnomalyDetector`, and the campaign ends
by checking the attribution invariant: *every excursion overlaps an
active fault*.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.registry import LAYOUTS, comparison_pair
from ..disksim.array import DEFAULT_ELEMENT_SIZE
from ..disksim.faultplan import FaultPlan
from ..obs import default_registry, default_tracer
from ..raidsim.campaign import run_scenario
from ..raidsim.controller import RetryPolicy
from ..workloads.generator import user_read_stream
from .anomaly import AnomalyDetector, AttributionReport, MetricSpec
from .schedule import HazardRates, NemesisSchedule, build_schedule
from .tracker import FaultTimeline

__all__ = [
    "NemesisConfig",
    "TickSample",
    "ArrangementReport",
    "NemesisReport",
    "run_nemesis_campaign",
]

#: bump when checkpoint / report wire formats change shape
CAMPAIGN_SCHEMA_VERSION = 1

_ROLES = ("traditional", "shifted")

# Probe sizing.  8 reads/s keeps the probe array comfortably below
# saturation, so quiet-tick latency jitter stays ~6% CV — far inside the
# excursion thresholds (saturated probes at 30/s showed 20% CV and tails
# past 1.7x the mean, indistinguishable from real fault damage).
PROBE_ELEMENT_SIZE = DEFAULT_ELEMENT_SIZE
PROBE_PAYLOAD_BYTES = 8
PROBE_READS_PER_TICK = 32
PROBE_READ_RATE_PER_S = 8.0
PROBE_REBUILD_WINDOW = 4
PROBE_BACKOFF_JITTER = 0.3

# Anomaly thresholds, and the quiet-sample baseline they judge against.
REL_THRESHOLD = 0.5
Z_THRESHOLD = 5.0
BASELINE_WINDOW = 64
MIN_BASELINE = 6

METRIC_SPECS = tuple(
    MetricSpec(name, bad_side, REL_THRESHOLD, Z_THRESHOLD, BASELINE_WINDOW, min_samples)
    for name, bad_side, min_samples in (
        ("user_latency_s", "high", MIN_BASELINE),
        ("read_throughput_rps", "low", MIN_BASELINE),
        ("unavailability", "high", 2),
        ("rebuild_mbps", "low", 3),
    )
)


@dataclass(frozen=True)
class NemesisConfig:
    """Everything a nemesis campaign run is a pure function of.

    The probe sizing and the detector thresholds are module constants;
    :meth:`to_dict` writes them beside the fields, so a report records
    what it ran with and a checkpoint refuses to resume across a change
    to one of them.
    """

    family: str = "mirror"
    n: int = 4
    horizon_s: float = 7 * 86_400.0
    tick_s: float = 3600.0
    seed: int = 2012
    rates: HazardRates = field(default_factory=HazardRates)
    safety_budget: int = 1
    allow_excess: bool = False
    n_stripes: int = 6

    def __post_init__(self) -> None:
        if self.horizon_s <= 0 or self.tick_s <= 0:
            raise ValueError("horizon_s and tick_s must be positive")
        if self.tick_s > self.horizon_s:
            raise ValueError("tick_s must not exceed horizon_s")
        comparison_pair(self.family)  # validate the family up front

    @property
    def n_ticks(self) -> int:
        return int(math.ceil(self.horizon_s / self.tick_s))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rates"] = self.rates.to_dict()
        d.update(
            element_size=PROBE_ELEMENT_SIZE,
            payload_bytes=PROBE_PAYLOAD_BYTES,
            reads_per_tick=PROBE_READS_PER_TICK,
            read_rate_per_s=PROBE_READ_RATE_PER_S,
            rebuild_window=PROBE_REBUILD_WINDOW,
            backoff_jitter=PROBE_BACKOFF_JITTER,
            rel_threshold=REL_THRESHOLD,
            z_threshold=Z_THRESHOLD,
            baseline_window=BASELINE_WINDOW,
            min_baseline=MIN_BASELINE,
        )
        return d

    def fingerprint(self) -> str:
        """Digest of the config — checkpoints refuse to cross it."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TickSample:
    """One tick's probe measurements (the unit of checkpointing)."""

    tick: int
    t_s: float
    served: int
    failed: int
    user_latency_s: float
    read_throughput_rps: float
    unavailability: float
    #: rebuild progress when a death was active, else ``None``
    rebuild_mbps: float | None
    degraded: bool
    active_fault_ids: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "t_s": self.t_s,
            "served": self.served,
            "failed": self.failed,
            "user_latency_s": self.user_latency_s,
            "read_throughput_rps": self.read_throughput_rps,
            "unavailability": self.unavailability,
            "rebuild_mbps": self.rebuild_mbps,
            "degraded": self.degraded,
            "active_fault_ids": list(self.active_fault_ids),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TickSample":
        d = dict(d)
        d["active_fault_ids"] = tuple(d["active_fault_ids"])
        return cls(**d)


@dataclass(frozen=True)
class ArrangementReport:
    """One arrangement's week under the storm, summarised."""

    layout_name: str
    role: str
    n_ticks: int
    availability: float
    mean_latency_s: float
    mean_throughput_rps: float
    rebuild_ticks: int
    attribution: AttributionReport
    #: sha256 over the canonical sample stream — the determinism anchor
    digest: str

    def to_dict(self) -> dict:
        return {
            "layout": self.layout_name,
            "role": self.role,
            "n_ticks": self.n_ticks,
            "availability": self.availability,
            "mean_latency_s": self.mean_latency_s,
            "mean_throughput_rps": self.mean_throughput_rps,
            "rebuild_ticks": self.rebuild_ticks,
            "attribution": self.attribution.to_dict(),
            "digest": self.digest,
        }


@dataclass(frozen=True)
class NemesisReport:
    """Both arrangements under the identical schedule, plus the verdict."""

    config: NemesisConfig
    schedule: NemesisSchedule
    traditional: ArrangementReport
    shifted: ArrangementReport

    @property
    def availability_delta(self) -> float:
        return self.shifted.availability - self.traditional.availability

    @property
    def unexplained_total(self) -> int:
        return len(self.traditional.attribution.unexplained) + len(
            self.shifted.attribution.unexplained
        )

    @property
    def attribution_coverage(self) -> float:
        n = (
            self.traditional.attribution.n_excursions
            + self.shifted.attribution.n_excursions
        )
        if n == 0:
            return 1.0
        return 1.0 - self.unexplained_total / n

    @property
    def digest(self) -> str:
        """One digest over both arrangements' sample streams."""
        return hashlib.sha256(
            (self.traditional.digest + self.shifted.digest).encode()
        ).hexdigest()[:16]

    def assert_invariant(self) -> None:
        self.traditional.attribution.assert_invariant()
        self.shifted.attribution.assert_invariant()

    def to_dict(self) -> dict:
        timeline = FaultTimeline.from_schedule(self.schedule)
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "fingerprint": self.config.fingerprint(),
            "schedule": self.schedule.to_dict(),
            "active_fault_timeline": timeline.to_dict(),
            "traditional": self.traditional.to_dict(),
            "shifted": self.shifted.to_dict(),
            "availability_delta": self.availability_delta,
            "attribution_coverage": self.attribution_coverage,
            "unexplained_total": self.unexplained_total,
            "digest": self.digest,
        }


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _tick_plan(
    config: NemesisConfig, schedule: NemesisSchedule, arr_idx: int, tick: int
) -> tuple[FaultPlan, list[int], tuple[int, ...], int]:
    """The per-tick fault plan: exactly what is active at the tick start."""
    t0 = tick * config.tick_s
    active = schedule.active_at(t0)
    ss = np.random.SeedSequence(config.seed, spawn_key=(arr_idx, tick))
    fault_seed, read_seed = (int(x) for x in ss.generate_state(2, dtype=np.uint64))
    plan = FaultPlan(seed=fault_seed)
    failed: list[int] = []
    burst_rate = 0.0
    lse_burst = 0
    for f in active:
        if f.kind == "disk-death":
            failed.append(f.disk % schedule.n_disks)
        elif f.kind == "fail-slow":
            plan = plan.with_fail_slow(f.disk % schedule.n_disks, f.magnitude)
        elif f.kind == "transient-burst":
            burst_rate = max(burst_rate, f.magnitude)
        elif f.kind == "lse-storm":
            lse_burst += int(f.magnitude)
    if burst_rate > 0:
        plan = plan.with_transients(rate=burst_rate)
    if lse_burst > 0:
        plan = plan.with_lse_burst(lse_burst)
    return plan, sorted(set(failed)), tuple(f.fault_id for f in active), read_seed


def _probe_tick(
    layout, config: NemesisConfig, schedule: NemesisSchedule, arr_idx: int, tick: int
) -> TickSample:
    """Run one tick's probe simulation and distil it into a sample.

    Both tick kinds go through :func:`~repro.raidsim.campaign.run_scenario`;
    a healthy tick simply has no disk to rebuild.
    """
    plan, failed_disks, active_ids, read_seed = _tick_plan(
        config, schedule, arr_idx, tick
    )
    reads = user_read_stream(
        layout.n,
        config.n_stripes,
        duration_s=PROBE_READS_PER_TICK / PROBE_READ_RATE_PER_S,
        rate_per_s=PROBE_READ_RATE_PER_S,
        seed=read_seed,
    )
    online = run_scenario(
        layout,
        reads,
        failed_disks=failed_disks,
        n_stripes=config.n_stripes,
        element_size=PROBE_ELEMENT_SIZE,
        payload_bytes=PROBE_PAYLOAD_BYTES,
        window=PROBE_REBUILD_WINDOW,
        fault_plan=plan,
        retry_policy=RetryPolicy(jitter=PROBE_BACKOFF_JITTER),
        tracer=False,
    ).online
    served, n_failed = online.n_user_reads, online.failed_user_reads
    return TickSample(
        tick=tick,
        t_s=tick * config.tick_s,
        served=served,
        failed=n_failed,
        # NaN when the probe served nothing; _feed_detector gates on
        # sample.served so the detector never eats it
        user_latency_s=online.mean_user_latency_s,
        read_throughput_rps=served / online.end_s if online.end_s > 0 else 0.0,
        unavailability=n_failed / served if served else 0.0,
        rebuild_mbps=(
            online.rebuild.recovered_throughput_mbps if failed_disks else None
        ),
        degraded=bool(failed_disks),
        active_fault_ids=active_ids,
    )


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def _samples_digest(samples: list[TickSample]) -> str:
    blob = json.dumps([s.to_dict() for s in samples], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_checkpoint(path, fingerprint: str) -> dict[str, list[TickSample]]:
    empty: dict[str, list[TickSample]] = {role: [] for role in _ROLES}
    if path is None or not os.path.exists(path):
        return empty
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint {path} is not a campaign checkpoint")
    if data.get("schema_version") != CAMPAIGN_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint schema {data.get('schema_version')} unsupported"
        )
    if data.get("fingerprint") != fingerprint:
        raise ValueError(
            "checkpoint was written by a different campaign config "
            f"({data.get('fingerprint')} != {fingerprint})"
        )
    return {
        role: [TickSample.from_dict(d) for d in data.get("samples", {}).get(role, [])]
        for role in _ROLES
    }


def _save_checkpoint(
    path, fingerprint: str, samples: dict[str, list[TickSample]]
) -> None:
    if path is None:
        return
    payload = {
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "samples": {
            role: [s.to_dict() for s in ticks] for role, ticks in samples.items()
        },
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        # the bytes must be on disk before the rename publishes them, or
        # a crash can leave a renamed but empty or torn checkpoint
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)  # atomic: a killed campaign never truncates


# ----------------------------------------------------------------------
# the campaign loop
# ----------------------------------------------------------------------
def _feed_detector(
    detector: AnomalyDetector, timeline: FaultTimeline, sample: TickSample
) -> None:
    """Route one sample's metrics into the detector (replay-identical)."""
    t = sample.t_s
    if sample.served:
        detector.observe(t, "user_latency_s", sample.user_latency_s)
        detector.observe(t, "read_throughput_rps", sample.read_throughput_rps)
        detector.observe(t, "unavailability", sample.unavailability)
    if sample.rebuild_mbps is not None:
        # rebuild progress is baselined against *other rebuilds*: a tick
        # is quiet for this metric when the death being repaired is the
        # only active fault
        kinds = {iv.kind for iv in timeline.active_at(t)}
        detector.observe(
            t, "rebuild_mbps", sample.rebuild_mbps, quiet=kinds == {"disk-death"}
        )


def _run_arrangement(
    layout,
    role: str,
    arr_idx: int,
    config: NemesisConfig,
    schedule: NemesisSchedule,
    timeline: FaultTimeline,
    samples: dict[str, list[TickSample]],
    budget: list,
    checkpoint_path,
    fingerprint: str,
) -> ArrangementReport | None:
    reg = default_registry()
    ticks_counter = reg.counter("nemesis.ticks_total", "probe ticks completed")
    detector = AnomalyDetector(timeline, metrics=METRIC_SPECS)
    mine = samples[role]
    for tick in range(config.n_ticks):
        if tick < len(mine):
            sample = mine[tick]  # replayed from the checkpoint
        else:
            if budget[0] is not None and budget[0] <= 0:
                _save_checkpoint(checkpoint_path, fingerprint, samples)
                return None
            sample = _probe_tick(layout, config, schedule, arr_idx, tick)
            mine.append(sample)
            if budget[0] is not None:
                budget[0] -= 1
            _save_checkpoint(checkpoint_path, fingerprint, samples)
        _feed_detector(detector, timeline, sample)
        timeline.observe_gauge(sample.t_s, arrangement=role)
        ticks_counter.inc(1.0, arrangement=role)
    tracer = default_tracer()
    if tracer is not None:
        group = tracer.group(f"nemesis {layout.name}")
        timeline.export_spans(group, horizon_s=config.horizon_s)
    with_reads = [s for s in mine if s.served]
    availability = (
        float(np.mean([1.0 - s.unavailability for s in with_reads]))
        if with_reads
        else 1.0
    )
    return ArrangementReport(
        layout_name=layout.name,
        role=role,
        n_ticks=len(mine),
        availability=availability,
        # zero-sample aggregates are NaN (never 0.0) — same contract as
        # OnlineResult; only reachable when every tick served nothing
        mean_latency_s=(
            float(np.mean([s.user_latency_s for s in with_reads]))
            if with_reads
            else float("nan")
        ),
        mean_throughput_rps=(
            float(np.mean([s.read_throughput_rps for s in with_reads]))
            if with_reads
            else float("nan")
        ),
        rebuild_ticks=sum(1 for s in mine if s.degraded),
        attribution=detector.report(),
        digest=_samples_digest(mine),
    )


def run_nemesis_campaign(
    config: NemesisConfig,
    checkpoint_path: str | None = None,
    stop_after_ticks: int | None = None,
) -> NemesisReport | None:
    """Both arrangements through the identical stochastic schedule.

    ``checkpoint_path`` persists every completed tick (atomically);
    rerunning with the same config resumes from it and — because every
    tick is a pure function of the config — converges on the very same
    report a never-interrupted run produces.

    ``stop_after_ticks`` bounds the number of *freshly computed* ticks
    before returning ``None`` (the test harness's stand-in for a
    mid-campaign kill); replayed ticks are free.
    """
    baseline_name, variant_name = comparison_pair(config.family)
    traditional = LAYOUTS[baseline_name](config.n)
    shifted = LAYOUTS[variant_name](config.n)
    if traditional.n_disks != shifted.n_disks:
        raise ValueError(
            "arrangements disagree on array width: "
            f"{traditional.n_disks} != {shifted.n_disks}"
        )
    schedule = build_schedule(
        traditional.n_disks,
        config.horizon_s,
        seed=config.seed,
        rates=config.rates,
        safety_budget=config.safety_budget,
        allow_excess=config.allow_excess,
    )
    timeline = FaultTimeline.from_schedule(schedule)
    timeline.export_metrics()
    fingerprint = config.fingerprint()
    samples = _load_checkpoint(checkpoint_path, fingerprint)
    budget = [stop_after_ticks]
    reports: dict[str, ArrangementReport] = {}
    for arr_idx, (role, layout) in enumerate(
        (("traditional", traditional), ("shifted", shifted))
    ):
        report = _run_arrangement(
            layout,
            role,
            arr_idx,
            config,
            schedule,
            timeline,
            samples,
            budget,
            checkpoint_path,
            fingerprint,
        )
        if report is None:
            return None
        reports[role] = report
    return NemesisReport(
        config=config,
        schedule=schedule,
        traditional=reports["traditional"],
        shifted=reports["shifted"],
    )
