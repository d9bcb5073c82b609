"""Declarative, seeded fault-injection plans (the campaign engine's core).

The static :class:`~repro.disksim.faults.LatentSectorErrors` model covers
only one hazard class — permanently unreadable sectors.  Real arrays
additionally see *transient* media errors that succeed after a few
retries, *fail-slow* drives whose service times inflate long before
they die (Thomasian's mirrored-array survey, arXiv:1801.08873, treats
both as dominant), and whole-disk failures that strike at the worst
possible moment: in the middle of a rebuild.

A :class:`FaultPlan` declares all of these in one immutable, seeded
object:

* **latent sector errors** — explicit cells and/or a random burst;
* **transient read errors** — a per-read trigger probability plus a
  geometric success-after-k-retries distribution (capped, so bounded
  retry policies provably converge);
* **fail-slow disks** — a service-time multiplier, optionally limited
  to a time window;
* **scheduled whole-disk failures** — fire at a simulated timestamp,
  including while a reconstruction is in flight.

Plans are *specifications*: composable with the ``with_*`` builders and
reusable across runs.  :meth:`FaultPlan.activate` compiles a plan into
an :class:`ActiveFaults` engine hook whose randomness comes from a
fresh :class:`numpy.random.Generator` seeded by the plan — two
activations of the same plan replay the identical fault schedule, which
is what makes campaign results comparable across arrangements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .faults import LatentSectorErrors
from .request import IOKind, IORequest

__all__ = [
    "TransientFaults",
    "FailSlow",
    "DiskFailure",
    "FaultPlan",
    "ActiveFaults",
    "InjectionCounters",
]


@dataclass(frozen=True)
class TransientFaults:
    """Retryable media errors.

    A fresh read triggers an error with probability ``rate``.  Once
    triggered, the total number of failing attempts is drawn from a
    geometric distribution with success parameter ``retry_success_rate``
    and capped at ``max_failures`` — so a retry policy allowing
    ``max_failures`` retries always reads the data eventually.
    """

    rate: float
    retry_success_rate: float = 0.7
    max_failures: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"transient rate must be in [0, 1], got {self.rate}")
        if not 0.0 < self.retry_success_rate <= 1.0:
            raise ValueError(
                f"retry success rate must be in (0, 1], got {self.retry_success_rate}"
            )
        if self.max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {self.max_failures}")


@dataclass(frozen=True)
class FailSlow:
    """One drive serving every request ``multiplier`` times slower.

    The slowdown applies while the simulated clock is inside
    ``[start_s, end_s)`` — an unbounded window models a permanently
    degraded drive, a bounded one a recovering or intermittent fault.
    """

    disk: int
    multiplier: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise ValueError(f"disk must be >= 0, got {self.disk}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"fail-slow multiplier must be >= 1, got {self.multiplier}"
            )
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError(
                f"bad fail-slow window [{self.start_s}, {self.end_s})"
            )


@dataclass(frozen=True)
class DiskFailure:
    """A whole-disk failure at an absolute simulated time."""

    disk: int
    time_s: float

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise ValueError(f"disk must be >= 0, got {self.disk}")
        if self.time_s < 0:
            raise ValueError(f"failure time must be >= 0, got {self.time_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible, composable fault scenario.

    Build incrementally with the ``with_*`` helpers::

        plan = (FaultPlan(seed=7)
                .with_lse_burst(4)
                .with_transients(rate=0.05)
                .with_fail_slow(disk=2, multiplier=4.0)
                .with_disk_failure(disk=3, time_s=1.5))
    """

    seed: int = 0
    transient: TransientFaults | None = None
    fail_slow: tuple[FailSlow, ...] = ()
    disk_failures: tuple[DiskFailure, ...] = ()
    lse_cells: tuple[tuple[int, int], ...] = ()
    n_random_lses: int = 0

    def __post_init__(self) -> None:
        if self.n_random_lses < 0:
            raise ValueError(
                f"n_random_lses must be >= 0, got {self.n_random_lses}"
            )
        seen = set()
        for df in self.disk_failures:
            if df.disk in seen:
                raise ValueError(f"disk {df.disk} scheduled to fail twice")
            seen.add(df.disk)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def with_transients(
        self,
        rate: float,
        retry_success_rate: float = 0.7,
        max_failures: int = 3,
    ) -> "FaultPlan":
        return replace(
            self, transient=TransientFaults(rate, retry_success_rate, max_failures)
        )

    def with_fail_slow(
        self,
        disk: int,
        multiplier: float,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return replace(
            self,
            fail_slow=self.fail_slow + (FailSlow(disk, multiplier, start_s, end_s),),
        )

    def with_disk_failure(self, disk: int, time_s: float) -> "FaultPlan":
        return replace(
            self, disk_failures=self.disk_failures + (DiskFailure(disk, time_s),)
        )

    def with_lse(self, *cells: tuple[int, int]) -> "FaultPlan":
        return replace(self, lse_cells=self.lse_cells + tuple(cells))

    def with_lse_burst(self, n: int) -> "FaultPlan":
        return replace(self, n_random_lses=self.n_random_lses + n)

    # ------------------------------------------------------------------
    def activate(
        self, element_size: int, n_disks: int, slots_per_disk: int
    ) -> "ActiveFaults":
        """Compile the plan into a stateful engine hook for one run."""
        return ActiveFaults(self, element_size, n_disks, slots_per_disk)


@dataclass
class InjectionCounters:
    """What an :class:`ActiveFaults` instance actually injected."""

    transient_errors: int = 0
    lse_read_errors: int = 0
    dead_disk_errors: int = 0
    slowed_requests: int = 0


class ActiveFaults:
    """One run's live fault state, wired into the event engine.

    The :class:`~repro.disksim.events.Simulation` calls two hooks:

    * :meth:`service_factor` — multiplies a request's service time
      (fail-slow modelling);
    * :meth:`on_completion` — flags the request's ``error`` /
      ``error_kind`` for dead disks, latent sector errors and transient
      errors, and heals LSEs on overwrite (via the wrapped
      :class:`~repro.disksim.faults.LatentSectorErrors`).

    Transient bookkeeping is keyed by the request's geometry
    ``(disk, offset, size)`` and guarded by the request's *retry chain*
    (:attr:`~repro.disksim.request.IORequest.chain_id`): a retry only
    consumes a failure budget drawn for its own chain, so two
    independent in-flight reads of the same geometry can never steal
    each other's fault state.
    """

    def __init__(
        self,
        plan: FaultPlan,
        element_size: int,
        n_disks: int,
        slots_per_disk: int,
    ) -> None:
        for disk, slot in plan.lse_cells:
            if not (0 <= disk < n_disks and 0 <= slot < slots_per_disk):
                raise ValueError(
                    f"LSE cell ({disk}, {slot}) outside the "
                    f"{n_disks} x {slots_per_disk} array"
                )
        for spec in plan.fail_slow:
            if spec.disk >= n_disks:
                raise ValueError(f"fail-slow disk {spec.disk} outside the array")
        for df in plan.disk_failures:
            if df.disk >= n_disks:
                raise ValueError(f"failing disk {df.disk} outside the array")
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.lse = LatentSectorErrors(element_size)
        for disk, slot in plan.lse_cells:
            self.lse.inject(disk, slot)
        if plan.n_random_lses:
            self.lse.inject_random(
                self.rng, plan.n_random_lses, n_disks, slots_per_disk
            )
        self.counters = InjectionCounters()
        self._failed_at = {df.disk: df.time_s for df in plan.disk_failures}
        #: ``(chain_id, remaining failures)`` per in-flight transient,
        #: keyed by geometry
        self._transient_pending: dict[tuple[int, int, int], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def service_factor(self, disk: int, now: float) -> float:
        """Service-time multiplier for ``disk`` at simulated time ``now``."""
        factor = 1.0
        for spec in self.plan.fail_slow:
            if spec.disk == disk and spec.start_s <= now < spec.end_s:
                factor *= spec.multiplier
        if factor != 1.0:
            self.counters.slowed_requests += 1
        return factor

    def is_failed(self, disk: int, now: float) -> bool:
        """Whether ``disk`` has wholly failed by time ``now``."""
        t = self._failed_at.get(disk)
        return t is not None and now >= t

    def failed_disks(self, now: float) -> list[int]:
        return sorted(d for d, t in self._failed_at.items() if now >= t)

    # ------------------------------------------------------------------
    def on_completion(self, request: IORequest) -> None:
        """Engine hook: classify the completed request's outcome."""
        now = request.finish_time
        if self.is_failed(request.disk, now):
            request.error = True
            request.error_kind = "disk-failed"
            self.counters.dead_disk_errors += 1
            return
        self.lse.on_completion(request)
        if request.error:
            request.error_kind = "lse"
            self.counters.lse_read_errors += 1
            return
        if request.kind is not IOKind.READ:
            return
        key = (request.disk, request.offset, request.size)
        if request.attempt > 0:
            entry = self._transient_pending.get(key)
            if entry is None:
                return  # retry of something else (e.g. a timeout); serve it
            chain, remaining = entry
            if chain != request.chain_id:
                # the parked budget belongs to a *different* retry chain
                # of the same geometry — don't let this retry steal it
                return
            # a retry of a triggered transient: consume one failure
            remaining -= 1
            if remaining <= 0:
                del self._transient_pending[key]
                return  # this retry succeeded
            self._transient_pending[key] = (chain, remaining)
            request.error = True
            request.error_kind = "transient"
            self.counters.transient_errors += 1
            return
        spec = self.plan.transient
        if spec is None:
            return
        # a fresh read (attempt == 0): any leftover pending entry is stale
        # — an earlier triggered transient that was never retried.  Drop
        # it so this independent read redraws instead of inheriting the
        # old failure budget (and being misclassified as a retry).
        self._transient_pending.pop(key, None)
        if float(self.rng.random()) < spec.rate:
            total_failures = min(
                int(self.rng.geometric(spec.retry_success_rate)), spec.max_failures
            )
            if total_failures > 1:
                self._transient_pending[key] = (request.chain_id, total_failures - 1)
            request.error = True
            request.error_kind = "transient"
            self.counters.transient_errors += 1
