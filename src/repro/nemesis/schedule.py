"""Stochastic fault schedules: hazard classes composed over simulated weeks.

A :class:`NemesisSchedule` is the frozen output of :func:`build_schedule`:
a time-sorted tuple of :class:`FaultInterval` records drawn from four
hazard classes —

* **disk deaths** — whole-disk failures followed by a repair window;
* **fail-slow windows** — one drive's service time inflated for a while;
* **transient bursts** — array-wide retryable-error storms;
* **LSE storms** — a batch of latent sector errors landing at once.

Each class draws its Poisson arrivals (and its magnitudes) from an
*independent* :class:`numpy.random.SeedSequence` stream spawned from the
campaign seed, so raising one class's rate never perturbs another
class's arrival times — the knobs are orthogonal by construction, and
the whole schedule is a pure function of its arguments.

A **safety budget** keeps the storm honest: disk deaths whose repair
windows would overlap more concurrent failures than the arrangement
tolerates are dropped (and counted), unless ``allow_excess`` explicitly
asks for data-loss territory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "HazardRates",
    "FaultInterval",
    "NemesisSchedule",
    "build_schedule",
]

SECONDS_PER_DAY = 86_400.0

#: the hazard classes a schedule composes, in stream order
FAULT_KINDS = ("disk-death", "fail-slow", "transient-burst", "lse-storm")

#: bump when the ``to_dict`` wire format changes shape
SCHEDULE_SCHEMA_VERSION = 1


#: uniform service-time multiplier range for fail-slow windows
FAIL_SLOW_MULTIPLIER = (2.0, 8.0)
FAIL_SLOW_DURATION_S = (1800.0, 14_400.0)
#: uniform transient trigger-rate range during a burst
BURST_RATE = (0.2, 0.8)
BURST_DURATION_S = (600.0, 7200.0)
#: uniform (inclusive) latent-sector-error count per storm
LSE_STORM_SIZE = (1, 4)
#: how long a storm's injected errors dominate read outcomes
LSE_EFFECT_S = 1800.0
#: how long a dead disk stays under repair (its failure interval)
REPAIR_S = 7200.0


@dataclass(frozen=True)
class HazardRates:
    """Per-class Poisson arrival rates, per simulated day.

    A rate of 0 disables its class.  The magnitude ranges and the
    repair and LSE-effect windows are module constants.
    """

    disk_death_per_day: float = 0.5
    fail_slow_per_day: float = 1.0
    transient_burst_per_day: float = 2.0
    lse_storm_per_day: float = 1.0

    def __post_init__(self) -> None:
        for name, rate in asdict(self).items():
            # an infinite rate draws arrivals forever, a NaN one none
            if not 0 <= rate < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")

    def to_dict(self) -> dict:
        """The rates plus the constant ranges, under their own keys."""
        return {
            **asdict(self),
            "fail_slow_multiplier": FAIL_SLOW_MULTIPLIER,
            "fail_slow_duration_s": FAIL_SLOW_DURATION_S,
            "burst_rate": BURST_RATE,
            "burst_duration_s": BURST_DURATION_S,
            "lse_storm_size": LSE_STORM_SIZE,
            "lse_effect_s": LSE_EFFECT_S,
            "repair_s": REPAIR_S,
        }


@dataclass(frozen=True)
class FaultInterval:
    """One fault's active window, in a schedule or on a timeline.

    ``disk`` is ``-1`` for array-wide hazards (transient bursts, LSE
    storms).  ``magnitude`` is class-specific: the fail-slow
    multiplier, the burst's transient trigger rate, the storm's error
    count; disk deaths carry 1.0.  ``end_s`` is ``inf`` while a
    timeline interval is open; a schedule's intervals are all closed.
    """

    fault_id: int
    kind: str
    disk: int
    start_s: float
    end_s: float
    magnitude: float = 1.0

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s

    def to_dict(self) -> dict:
        return {
            "fault_id": self.fault_id,
            "kind": self.kind,
            "disk": self.disk,
            "start_s": self.start_s,
            "end_s": None if math.isinf(self.end_s) else self.end_s,
            "magnitude": self.magnitude,
        }


@dataclass(frozen=True)
class NemesisSchedule:
    """A frozen, replayable fault schedule over one campaign horizon."""

    seed: int
    horizon_s: float
    n_disks: int
    safety_budget: int
    faults: tuple[FaultInterval, ...]
    #: disk deaths suppressed by the safety budget
    dropped_deaths: int = 0
    rates: HazardRates = field(default_factory=HazardRates)

    def __len__(self) -> int:
        return len(self.faults)

    def active_at(self, t: float) -> tuple[FaultInterval, ...]:
        return tuple(f for f in self.faults if f.active_at(t))

    def of_kind(self, kind: str) -> tuple[FaultInterval, ...]:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return tuple(f for f in self.faults if f.kind == kind)

    def to_dict(self) -> dict:
        """Schema-versioned wire form (CLI ``--json``, checkpoints)."""
        return {
            "schema_version": SCHEDULE_SCHEMA_VERSION,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "n_disks": self.n_disks,
            "safety_budget": self.safety_budget,
            "dropped_deaths": self.dropped_deaths,
            "faults": [f.to_dict() for f in self.faults],
        }


def _arrivals(
    rng: np.random.Generator, per_day: float, horizon_s: float
) -> list[float]:
    """Poisson arrival times over ``[0, horizon_s)``."""
    times: list[float] = []
    if per_day <= 0:
        return times
    mean_gap = SECONDS_PER_DAY / per_day
    t = float(rng.exponential(mean_gap))
    while t < horizon_s:
        times.append(t)
        t += float(rng.exponential(mean_gap))
    return times


def _uniform(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    lo, hi = lo_hi
    return float(rng.uniform(lo, hi)) if hi > lo else float(lo)


def build_schedule(
    n_disks: int,
    horizon_s: float,
    seed: int = 2012,
    rates: HazardRates | None = None,
    safety_budget: int = 1,
    allow_excess: bool = False,
) -> NemesisSchedule:
    """Draw a seeded stochastic schedule over ``[0, horizon_s)``.

    ``safety_budget`` caps *concurrent* disk deaths (a death occupies
    its repair window): a drawn death that would push the overlap count
    past the budget — or re-kill a disk still under repair — is dropped
    and tallied in :attr:`NemesisSchedule.dropped_deaths`.
    ``allow_excess`` disables the cap for deliberate data-loss storms.
    """
    if n_disks < 1:
        raise ValueError(f"n_disks must be >= 1, got {n_disks}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    if safety_budget < 0:
        raise ValueError(f"safety_budget must be >= 0, got {safety_budget}")
    rates = rates or HazardRates()
    streams = {
        kind: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i, kind in enumerate(FAULT_KINDS)
    }

    raw: list[tuple[float, float, str, int, float]] = []  # start, end, kind, disk, mag

    rng = streams["disk-death"]
    deaths: list[tuple[float, float, int]] = []
    dropped = 0
    for t in _arrivals(rng, rates.disk_death_per_day, horizon_s):
        disk = int(rng.integers(0, n_disks))
        end = t + REPAIR_S
        concurrent = [d for d in deaths if d[0] < end and t < d[1]]
        same_disk = any(d[2] == disk for d in concurrent)
        if not allow_excess and (same_disk or len(concurrent) >= safety_budget):
            dropped += 1
            continue
        if allow_excess and same_disk:
            dropped += 1  # a dead disk cannot die again, budget or not
            continue
        deaths.append((t, end, disk))
        raw.append((t, end, "disk-death", disk, 1.0))

    rng = streams["fail-slow"]
    for t in _arrivals(rng, rates.fail_slow_per_day, horizon_s):
        disk = int(rng.integers(0, n_disks))
        dur = _uniform(rng, FAIL_SLOW_DURATION_S)
        mult = _uniform(rng, FAIL_SLOW_MULTIPLIER)
        raw.append((t, t + dur, "fail-slow", disk, mult))

    rng = streams["transient-burst"]
    for t in _arrivals(rng, rates.transient_burst_per_day, horizon_s):
        dur = _uniform(rng, BURST_DURATION_S)
        rate = _uniform(rng, BURST_RATE)
        raw.append((t, t + dur, "transient-burst", -1, rate))

    rng = streams["lse-storm"]
    lo, hi = LSE_STORM_SIZE
    for t in _arrivals(rng, rates.lse_storm_per_day, horizon_s):
        size = int(rng.integers(lo, hi + 1))
        raw.append((t, t + LSE_EFFECT_S, "lse-storm", -1, float(size)))

    raw.sort(key=lambda r: (r[0], FAULT_KINDS.index(r[2]), r[3]))
    faults = tuple(
        FaultInterval(
            fault_id=i, kind=kind, disk=disk, start_s=start, end_s=end, magnitude=mag
        )
        for i, (start, end, kind, disk, mag) in enumerate(raw)
    )
    return NemesisSchedule(
        seed=seed,
        horizon_s=horizon_s,
        n_disks=n_disks,
        safety_budget=safety_budget,
        faults=faults,
        dropped_deaths=dropped,
        rates=rates,
    )
