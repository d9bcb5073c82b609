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

from ..core.errors import UnrecoverableFailureError
from ..disksim.array import _SINGLE
from ..disksim.request import IOKind, IORequest
from ..disksim.scheduler import PriorityScheduler
from ..obs.metrics import NULL_REGISTRY
from ..workloads.generator import UserRead
from ..workloads.openloop import SLOAccountant
from .controller import FaultStats, RaidController, RebuildResult, _check_window, _RetryBatch

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
    #: failed element requests of the user reads, after all retries
    #: and re-routing (see :meth:`SLOAccountant.record`)
    failed_user_reads: int = 0
    #: simulated clock when the last read or rebuild I/O settled; left
    #: out of equality, so result digests pinned before it existed hold
    end_s: float = field(default=0.0, compare=False)

    @property
    def unavailability(self) -> float:
        """Failed over served user reads (0.0 when none was served);
        campaign availability is one minus this."""
        n = self.n_user_reads
        return self.failed_user_reads / n if n else 0.0

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
    window:
        Stripes the rebuild keeps in flight; at least 1.
    throttle:
        ``None`` or a rebuild-rate policy with a ``delay_s(now, n_ios)``
        method — see :class:`~repro.workloads.openloop.FixedThrottle`
        and friends; forwarded to :meth:`RaidController.rebuild`.  A
        policy with an ``observe(latency_s)`` method is also fed every
        settled user read's latency.
    ledger:
        The :class:`~repro.workloads.openloop.SLOAccountant` each
        settled user read is recorded into, once; ``None`` keeps a
        silent one (no instrument, no recorder series).  The run's
        user-read figures all derive from it.
    """

    def __init__(
        self,
        controller: RaidController,
        failed_disks,
        user_reads: list[UserRead],
        window: int = 4,
        throttle=None,
        ledger: SLOAccountant | None = None,
    ) -> None:
        for server in controller.array.sim.disks:
            if not isinstance(server.scheduler, PriorityScheduler):
                raise ValueError(
                    "online reconstruction requires PriorityScheduler disks; "
                    "build the controller with scheduler_factory=PriorityScheduler"
                )
        _check_window(window)
        self.controller = controller
        self.failed = tuple(sorted(set(failed_disks)))
        self.user_reads = sorted(user_reads, key=lambda r: r.time)
        self.window = window
        self.throttle = throttle
        if ledger is None:
            ledger = SLOAccountant(registry=NULL_REGISTRY, recorder=False)
        self.ledger = ledger

    # ------------------------------------------------------------------
    def _compile(self) -> list[tuple[list[tuple[int, int]], bool, list] | None]:
        """Each arrival's placed cells, degraded flag and logical sources.

        All three are pure functions of the read's ``(stripe, i, j)``:
        the failure set and the rotation are fixed for the run.  Entries
        are shared between the arrivals of one address; an address no
        source set survives gets ``None``, and its arrival raises when
        it fires, where a read planned at its arrival would.
        """
        ctrl = self.controller
        layout = ctrl.layout
        stack = ctrl.stack
        failed = self.failed
        # sources by (logical failure set, i, j): a rotated stack maps
        # the failure onto few logical sets, shared across stripes
        source_memo: dict[tuple[tuple[int, ...], int, int], tuple[list, bool] | None] = {}
        logical_memo: dict[int, tuple[int, ...]] = {}
        by_address: dict[tuple[int, int, int], tuple | None] = {}
        compiled = []
        for read in self.user_reads:
            address = (read.stripe, read.i, read.j)
            if address in by_address:
                compiled.append(by_address[address])
                continue
            logical = logical_memo.get(read.stripe)
            if logical is None:
                logical = logical_memo[read.stripe] = tuple(
                    sorted({stack.logical_disk(read.stripe, f) for f in failed})
                )
            key = (logical, read.i, read.j)
            if key in source_memo:
                found = source_memo[key]
            else:
                try:
                    sources = degraded_read_sources(layout, set(logical), read.i, read.j)
                except UnrecoverableFailureError:
                    found = None
                else:
                    degraded = len(sources) > 1 or sources[0] != layout.data_cell(
                        read.i, read.j
                    )
                    found = (sources, degraded)
                source_memo[key] = found
            entry = None
            if found is not None:
                sources, degraded = found
                cells = [ctrl.place(read.stripe, c) for c in sources]
                entry = (cells, degraded, sources)
            by_address[address] = entry
            compiled.append(entry)
        return compiled

    def run(self) -> OnlineResult:
        """Rebuild the failed disks while the reads arrive; settle both.

        The reads are compiled first (:meth:`_compile`) and arrive as one
        :meth:`~repro.disksim.events.Simulation.schedule_stream`, which
        pops them as one ``schedule`` per read would.  A read of one
        cell submits its one request straight to the engine; a read of
        several cells goes through the controller's batch retry path.
        Each read settles once into the ledger, after re-routing when
        its retries ran out.
        """
        ctrl = self.controller
        array = ctrl.array
        sim = array.sim
        ledger = self.ledger
        observe = getattr(self.throttle, "observe", None)
        reads = self.user_reads
        compiled = self._compile()
        failed_set = set(self.failed)
        submit = sim.submit
        esize = array.element_size
        array_obs = array._obs
        read_kind = IOKind.READ

        def record(k: int, t0: float, failed_reqs) -> None:
            now = sim.now
            lat = now - t0
            ledger.record(lat, reads[k].tenant, now, len(failed_reqs), compiled[k][1])
            ledger.observe_queue_depth(sim.pending_count(), now)
            if observe is not None:
                observe(lat)

        def reroute(k: int, t0: float) -> bool:
            """Retries exhausted: re-plan through the next-cheapest
            source set, counting disks that died since the read was
            planned; ``False`` when no other set survives."""
            read = reads[k]
            bigger = {
                ctrl.stack.logical_disk(read.stripe, f)
                for f in failed_set | set(ctrl._dead_disks)
            }
            try:
                alt = degraded_read_sources(ctrl.layout, bigger, read.i, read.j)
            except UnrecoverableFailureError:
                return False
            if alt == compiled[k][2]:
                return False
            ctrl.fault_stats.rerouted_reads += 1
            ctrl._submit_reads_with_retry(
                [ctrl.place(read.stripe, c) for c in alt],
                "user",
                lambda fr: record(k, t0, fr),
                priority=0,
            )
            return True

        def arrive(k: int) -> None:
            entry = compiled[k]
            if entry is None:
                read = reads[k]
                logical = {ctrl.stack.logical_disk(read.stripe, f) for f in failed_set}
                degraded_read_sources(ctrl.layout, logical, read.i, read.j)  # raises
            cells = entry[0]
            t0 = sim.now

            # settled through the controller's retry path; with no
            # retry policy nothing is retried
            def settled(failed_reqs) -> None:
                if failed_reqs and reroute(k, t0):
                    return
                record(k, t0, failed_reqs)

            if len(cells) == 1:
                # one request, straight to the engine: what
                # submit_elements' single-op bypass submits and logs
                disk, slot = cells[0]
                if array_obs is not None:
                    array_obs.log.append(_SINGLE)
                batch = _RetryBatch(ctrl, settled)
                batch.outstanding = 1
                batch.primed = True
                submit(IORequest(disk, slot * esize, esize, read_kind, 0, "user"), batch.callback)
            else:
                ctrl._submit_reads_with_retry(cells, "user", settled, priority=0)

        sim.schedule_stream([r.time for r in reads], arrive)
        rebuild = ctrl.rebuild(self.failed, window=self.window, throttle=self.throttle)
        # settle user reads arriving after the rebuild's last event
        array.run()

        mean_s, max_s, p95_s = ledger.latency_stats(95)
        return OnlineResult(
            rebuild=rebuild,
            n_user_reads=len(ledger),
            mean_user_latency_s=mean_s,
            p95_user_latency_s=p95_s,
            max_user_latency_s=max_s,
            degraded_reads=ledger.degraded,
            fault_stats=rebuild.fault_stats,
            failed_user_reads=ledger.failed,
            end_s=ctrl.array.now,
        )
