"""On-line reconstruction: rebuild under live user reads (paper §III).

"During the on-line reconstruction process the storage system keeps on
serving user applications.  When a user requires to read data on the
disk under reconstruction, the failed data is recovered and responded
to user with a higher priority than other reconstruction I/Os."

:class:`OnlineReconstruction` composes a controller rebuild (priority
10 I/O) with a stream of user reads (priority 0).  A user read whose
target element sits on a failed disk becomes a *degraded read*: the
controller fetches the cheapest surviving source set that
:meth:`~repro.core.layouts.Layout.read_sources` names — a surviving
replica first (one element: where the shifted arrangement shines,
because replicas of a failed disk spread over all disks instead of
queueing behind the rebuild stream on one disk), then the row-parity
path, then a whole-stripe decode of the erasure codes.

The run reports user-read latency statistics alongside the rebuild
timing, quantifying the availability difference the paper motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import UnrecoverableFailureError
from ..disksim.scheduler import PriorityScheduler
from ..obs.metrics import percentile
from ..workloads.generator import UserRead
from .controller import FaultStats, RaidController, RebuildResult

__all__ = ["OnlineResult", "OnlineReconstruction", "degraded_read_sources"]


@dataclass(frozen=True)
class OnlineResult:
    """User-visible service quality during reconstruction."""

    rebuild: RebuildResult
    n_user_reads: int
    #: latency aggregates are ``NaN`` when no reads completed — an
    #: empty sample set is "no measurement", never a zero-latency
    #: collapse (JSON emitters coerce NaN to ``null``)
    mean_user_latency_s: float
    p95_user_latency_s: float
    max_user_latency_s: float
    degraded_reads: int
    #: the rebuild's retry/reroute/loss counters (user reads run under
    #: the same policy, so their retries land here too)
    fault_stats: FaultStats | None = None
    #: user reads that still failed after all retries and re-routing
    failed_user_reads: int = 0
    #: simulated clock when the last read or rebuild I/O settled; left
    #: out of equality, so result digests pinned before it existed hold
    end_s: float = field(default=0.0, compare=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"user reads: {self.n_user_reads}, mean latency "
            f"{self.mean_user_latency_s * 1e3:.1f} ms, p95 "
            f"{self.p95_user_latency_s * 1e3:.1f} ms"
        )


def degraded_read_sources(layout, failed: set[int], i: int, j: int) -> list[tuple[int, int]]:
    """Surviving cells whose contents answer a read of ``a[i, j]``.

    The element's own cell when its disk survives, else the sources of
    :meth:`~repro.core.layouts.Layout.read_sources` with every cell of
    the ``failed`` disks unavailable.  Raises
    :class:`~repro.core.errors.UnrecoverableFailureError` when no source
    set survives (which cannot happen within the layout's tolerance).
    """
    primary = layout.data_cell(i, j)
    if primary[0] not in failed:
        return [primary]
    unavailable = {(d, r) for d in failed for r in range(layout.rows)}
    step = layout.read_sources(primary, unavailable)
    if step is None:
        raise UnrecoverableFailureError(
            f"no surviving source for data element ({i}, {j}) under failures {sorted(failed)}"
        )
    return list(step.sources)


class OnlineReconstruction:
    """Run a rebuild while serving a user read stream.

    Parameters
    ----------
    controller:
        Must have been built with a priority-aware scheduler
        (:class:`~repro.disksim.scheduler.PriorityScheduler`), otherwise
        user reads would queue behind rebuild I/O and the priority
        semantics of §III would be lost — a warning-grade misuse the
        constructor rejects.
    failed_disks:
        Physical disks to fail and rebuild.
    user_reads:
        The :func:`~repro.workloads.generator.user_read_stream` arrivals
        (or any sorted-by-time iterable of
        :class:`~repro.workloads.generator.UserRead`, e.g. the open-loop
        streams of :mod:`repro.workloads.openloop`).
    throttle_delay_s:
        Either a fixed pre-submit delay per rebuild stripe (seconds) or
        a policy object with a ``delay_s(now, n_ios)`` method — see
        :class:`~repro.workloads.openloop.TokenBucketThrottle` and
        friends; forwarded to :meth:`RaidController.rebuild`.
    on_latency:
        Optional hook called as ``on_latency(read, latency_s)`` after
        each user read settles — the serve tier feeds its SLO
        accounting and latency-feedback throttles through this.
    """

    def __init__(
        self,
        controller: RaidController,
        failed_disks,
        user_reads: list[UserRead],
        window: int = 4,
        throttle_delay_s=0.0,
        on_latency=None,
    ) -> None:
        for server in controller.array.sim.disks:
            if not isinstance(server.scheduler, PriorityScheduler):
                raise ValueError(
                    "online reconstruction requires PriorityScheduler disks; "
                    "build the controller with scheduler_factory=PriorityScheduler"
                )
        self.controller = controller
        self.failed = tuple(sorted(set(failed_disks)))
        self.user_reads = sorted(user_reads, key=lambda r: r.time)
        self.window = window
        self.throttle_delay_s = throttle_delay_s
        self.on_latency = on_latency
        self._latencies: list[float] = []
        self._degraded = 0
        self._failed_reads = 0

    # ------------------------------------------------------------------
    def run(self) -> OnlineResult:
        ctrl = self.controller
        failed_set = set(self.failed)
        # degraded-source resolution is a pure function of the logical
        # failure set and the (i, j) address — memoise it across the
        # stream (a heavy campaign resolves the same handful of cells
        # thousands of times)
        source_memo: dict[
            tuple[tuple[int, ...], int, int], tuple[list[tuple[int, int]], bool]
        ] = {}
        # each stripe's logical failure set (identity unless rotated)
        logical_memo: dict[int, tuple[int, ...]] = {}

        def schedule_user_read(read: UserRead) -> None:
            def fire() -> None:
                logical = logical_memo.get(read.stripe)
                if logical is None:
                    logical = logical_memo[read.stripe] = tuple(
                        sorted({ctrl.stack.logical_disk(read.stripe, f) for f in failed_set})
                    )
                memo_key = (logical, read.i, read.j)
                hit = source_memo.get(memo_key)
                if hit is None:
                    found = degraded_read_sources(ctrl.layout, set(logical), read.i, read.j)
                    degraded = len(found) > 1 or found[0] != ctrl.layout.data_cell(
                        read.i, read.j
                    )
                    hit = source_memo[memo_key] = (found, degraded)
                sources, degraded = hit
                if degraded:
                    self._degraded += 1
                cells = [ctrl.place(read.stripe, c) for c in sources]
                t0 = ctrl.array.now

                # settled through the controller's retry path; with no
                # retry policy nothing is retried
                def settled(failed_reqs, rerouted: bool = False) -> None:
                    if failed_reqs and not rerouted:
                        # retries exhausted: re-plan through the
                        # next-cheapest source set, counting disks
                        # that died since the read was planned
                        bigger = {
                            ctrl.stack.logical_disk(read.stripe, f)
                            for f in failed_set | set(ctrl._dead_disks)
                        }
                        try:
                            alt = degraded_read_sources(
                                ctrl.layout, bigger, read.i, read.j
                            )
                        except UnrecoverableFailureError:
                            alt = None
                        if alt is not None and alt != sources:
                            ctrl.fault_stats.rerouted_reads += 1
                            ctrl._submit_reads_with_retry(
                                [ctrl.place(read.stripe, c) for c in alt],
                                "user",
                                lambda fr: settled(fr, rerouted=True),
                                priority=0,
                            )
                            return
                    lat = ctrl.array.now - t0
                    self._latencies.append(lat)
                    self._failed_reads += len(failed_reqs)
                    if self.on_latency is not None:
                        self.on_latency(read, lat)

                ctrl._submit_reads_with_retry(cells, "user", settled, priority=0)

            ctrl.array.sim.schedule(max(0.0, read.time - ctrl.array.now), fire)

        for read in self.user_reads:
            schedule_user_read(read)
        rebuild = ctrl.rebuild(
            self.failed, window=self.window, throttle_delay_s=self.throttle_delay_s
        )
        # settle user reads arriving after the rebuild's last event
        ctrl.array.run()

        if self._latencies:
            lat = np.array(self._latencies)
            mean_s = float(lat.mean())
            p95_s = percentile(self._latencies, 95)
            max_s = float(lat.max())
        else:
            # no completed reads: the aggregates are NaN, not 0.0 — see
            # the OnlineResult field comment
            mean_s = p95_s = max_s = float("nan")
        return OnlineResult(
            rebuild=rebuild,
            n_user_reads=len(self._latencies),
            mean_user_latency_s=mean_s,
            p95_user_latency_s=p95_s,
            max_user_latency_s=max_s,
            degraded_reads=self._degraded,
            fault_stats=rebuild.fault_stats,
            failed_user_reads=self._failed_reads,
            end_s=ctrl.array.now,
        )
