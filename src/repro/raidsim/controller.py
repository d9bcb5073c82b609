"""RAID controller: executes layout plans against the disk simulator.

The controller owns three things:

1. **Placement** — a :class:`~repro.core.stack.RotatedStack` maps each
   stripe's logical cells to (physical disk, element slot);
2. **Content** — a verification store holding every element's payload
   (synthetic film data, replicas, parity), so reconstruction
   correctness can be checked byte-for-byte like the paper does;
3. **Execution** — logical operations become
   :class:`~repro.disksim.request.IORequest` batches with proper
   read-before-write dependencies, pipelined with a configurable
   window, and timed by the event engine.

The controller never moves payload bytes through the simulator — the
simulator prices I/O *time*; the store settles I/O *correctness*.

Failures are specified by **physical** disk id.  With role rotation
enabled, the same physical failure exercises a different logical
failure in every stripe (the stack property of §II-A); without
rotation, physical and logical ids coincide, which is how the
throughput experiments pin down one specific logical case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.errors import UnrecoverableFailureError
from ..core.layouts import Layout, MirrorParityLayout
from ..core.plancache import PlanCache
from ..core.reconstruction import (
    CompiledPhase,
    CompiledSteps,
    RebuildPhase,
    ReconstructionPlan,
    RecoveryStep,
)
from ..core.stack import RotatedStack
from ..core.writes import CompiledWrite
from ..disksim.array import DEFAULT_ELEMENT_SIZE, ElementArray
from ..obs import default_recorder, default_registry, default_tracer
from ..obs.tracing import Tracer
from ..disksim.disk import DiskParameters
from ..disksim.faultplan import ActiveFaults, FaultPlan
from ..disksim.faults import LatentSectorErrors
from ..disksim.request import IOKind, IORequest
from ..disksim.scheduler import ElevatorScheduler, Scheduler
from ..workloads.film import DEFAULT_PAYLOAD_BYTES, FilmSource
from ..workloads.generator import WriteOp

if TYPE_CHECKING:
    from ..workloads.openloop import RebuildThrottle

__all__ = [
    "RaidController",
    "RebuildResult",
    "WriteResult",
    "RetryPolicy",
    "FaultStats",
    "RebuildCheckpoint",
]

_MB = 1024 * 1024


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded read retries with exponential backoff in simulated time.

    A failed (or, with ``timeout_s``, too-slow) read is resubmitted up
    to ``max_attempts - 1`` times; the k-th resubmission waits
    ``backoff_base_s * backoff_factor**k`` simulated seconds first, so
    backoff shows up in the measured makespans like it would on real
    hardware.  Only *transient* errors and timeouts are retried —
    latent sector errors and dead disks go straight to re-routing.

    ``jitter`` spreads each backoff uniformly over
    ``[1 - jitter, 1 + jitter]`` times the exponential base delay.
    The draw comes from the controller's *seeded* retry stream (derived
    from the fault plan's seed, never ambient randomness), so jittered
    campaigns stay bit-reproducible end to end.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.002
    backoff_factor: float = 2.0
    timeout_s: float | None = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff base must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.backoff_factor}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_s(
        self, failed_attempt: int, rng: np.random.Generator | None = None
    ) -> float:
        """Backoff before resubmitting after 0-based ``failed_attempt``.

        With ``jitter`` set, ``rng`` supplies the spread factor; callers
        that omit it (or a zero-jitter policy) get the deterministic
        exponential delay.
        """
        delay = self.backoff_base_s * self.backoff_factor**failed_attempt
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


@dataclass
class FaultStats:
    """Robustness counters of one rebuild (or online-rebuild) run."""

    retries: int = 0
    backoff_time_s: float = 0.0
    rerouted_reads: int = 0
    timeouts: int = 0
    slow_reads_accepted: int = 0
    abandoned_requests: int = 0
    transient_errors: int = 0
    healed_lses: int = 0
    data_loss_events: int = 0
    #: ``(physical disk, stripe)`` columns that could not be recovered
    lost_columns: list[tuple[int, int]] = field(default_factory=list)
    #: disks that failed *while* the rebuild was running
    mid_rebuild_failures: tuple[int, ...] = ()


@dataclass
class RebuildCheckpoint:
    """Which stripes a (possibly aborted) rebuild already restored.

    ``completed`` maps each physical disk under repair to the stripes
    whose column was fully rebuilt; a resumed rebuild
    (``rebuild(..., resume_from=checkpoint)``) only redoes the
    remainder.  ``lost`` columns are unrecoverable and stay lost.
    """

    failed_disks: tuple[int, ...]
    n_stripes: int
    completed: dict[int, frozenset[int]]
    lost: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class RebuildResult:
    """Outcome of a reconstruction run."""

    failed_disks: tuple[int, ...]
    makespan_s: float
    bytes_read: int
    bytes_written: int
    read_throughput_mbps: float
    recovered_bytes: int
    recovered_throughput_mbps: float
    verified: bool
    max_read_accesses_per_stripe: int
    #: retry/reroute/loss counters (always present; all-zero on a
    #: fault-free run)
    fault_stats: FaultStats | None = None
    #: present when the rebuild did not fully restore every column
    checkpoint: RebuildCheckpoint | None = None
    #: True when at least one column was abandoned as lost
    aborted: bool = False


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a write-workload run."""

    n_ops: int
    makespan_s: float
    user_bytes: int
    write_throughput_mbps: float
    bytes_read: int
    bytes_written: int


def _ctrl_instruments(reg) -> tuple:
    """:class:`_CtrlObs`' instruments, for :meth:`MetricsRegistry.bound`."""
    return (
        reg.counter("rebuild.retries", "reads resubmitted under the retry policy").labels(),
        reg.counter("rebuild.timeouts", "reads exceeding the retry policy's timeout").labels(),
        reg.counter("rebuild.backoff_s", "simulated seconds spent in retry backoff").labels(),
        reg.counter(
            "rebuild.rerouted_reads", "source reads re-routed around unreadable elements"
        ).labels(),
        reg.counter(
            "rebuild.slow_reads_accepted", "late reads accepted after timeout retries ran out"
        ).labels(),
        reg.counter(
            "rebuild.abandoned_requests", "retryable reads abandoned after max attempts"
        ).labels(),
        reg.counter("rebuild.decodes", "stripe decodes executed by CODE recovery steps").labels(),
        reg.counter(
            "rebuild.spare_writes", "recovered columns written out to hot spares"
        ).labels(),
        reg.counter("rebuild.phases", "rebuild phase barriers executed").labels(),
        reg.histogram(
            "rebuild.phase_wall_s", "simulated wall time of each rebuild phase"
        ).labels(),
    )


class _CtrlObs:
    """Controller-level instruments and the rebuild-phase span track.

    Counters are registered against the process default registry at
    controller construction, so they are null instruments (free no-op
    calls) when observability is off; the trace ``group`` is ``None``
    unless a tracer is attached, and phase spans check it explicitly.
    """

    __slots__ = (
        "group",
        "ctrl_track",
        "retries",
        "timeouts",
        "backoff_s",
        "rerouted",
        "slow_accepted",
        "abandoned",
        "decodes",
        "spare_writes",
        "phases",
        "plan_spans",
        "ts_progress",
        "ts_throughput",
    )

    def __init__(self, group, ctrl_track: int, layout_name: str = "") -> None:
        # flight-recorder series (None when no recorder is installed):
        # rebuild progress and per-phase recovery throughput over the
        # simulated clock, labelled by layout so a two-arrangement
        # comparison records both curves side by side
        rec = default_recorder()
        if rec is not None:
            self.ts_progress = rec.series(
                "rebuild.progress",
                "fraction of tracked stripes rebuilt",
                layout=layout_name,
            )
            self.ts_throughput = rec.series(
                "rebuild.throughput_mbps",
                "recovery throughput per rebuild phase",
                layout=layout_name,
            )
        else:
            self.ts_progress = None
            self.ts_throughput = None
        self.group = group
        #: pid of the controller's own track — one past the disks, so
        #: phase spans render above the per-disk I/O Gantt rows
        self.ctrl_track = ctrl_track
        (
            self.retries,
            self.timeouts,
            self.backoff_s,
            self.rerouted,
            self.slow_accepted,
            self.abandoned,
            self.decodes,
            self.spare_writes,
            self.phases,
            self.plan_spans,
        ) = default_registry().bound(_ctrl_instruments)

    def phase_span(
        self,
        t0: float,
        t1: float,
        phase_idx: int,
        fset,
        n_stripes: int,
        stripes_done: int | None = None,
        stripes_total: int = 0,
        phase_bytes: int = 0,
    ) -> None:
        """One ``rebuild.phase`` complete event on the controller track.

        A phase end is also the streaming tracer's durability point:
        the bounded buffer drains to the JSONL sink here, so a trace of
        a long campaign never holds more than one phase's tail (or the
        watermark, whichever trips first) in memory.

        ``stripes_done``/``stripes_total``/``phase_bytes`` feed the
        flight recorder's rebuild-progress and throughput series — the
        paper's "availability during reconstruction" x-axis.
        """
        self.phases.inc()
        self.plan_spans.observe(t1 - t0)
        if self.ts_progress is not None and stripes_total:
            self.ts_progress.observe(t1, stripes_done / stripes_total)
            if phase_bytes and t1 > t0:
                self.ts_throughput.observe(
                    t1, phase_bytes / (1024 * 1024) / (t1 - t0)
                )
        if self.group is not None:
            if t1 > t0:
                self.group.complete(
                    "rebuild.phase",
                    t0,
                    t1 - t0,
                    pid=self.ctrl_track,
                    cat="rebuild",
                    phase=phase_idx,
                    failed=list(fset),
                    stripes=n_stripes,
                )
            self.group.phase_boundary()


class _RetryBatch:
    """Retry/backoff bookkeeping for one batch of element reads.

    The settle logic used to be a nest of closures capturing a state
    dict per batch; on the rebuild hot path that allocated several
    cells and a dict for every stripe.  One slotted object with a
    bound-method callback does the same job.  :attr:`callback` is the
    per-request hook for a submission.
    """

    __slots__ = ("controller", "on_settled", "failed", "outstanding", "primed")

    def __init__(
        self,
        controller: "RaidController",
        on_settled: Callable[[list[IORequest]], None],
    ) -> None:
        self.controller = controller
        self.on_settled = on_settled
        self.failed: list[IORequest] = []
        self.outstanding = 0
        self.primed = False

    @property
    def callback(self) -> Callable[[IORequest], None]:
        """:meth:`on_request`, or :meth:`count_down` without a retry policy.

        Without a policy nothing is ever resubmitted or timed out, so
        the hook only counts down.  Not stored on the batch: a bound
        method held by its own object is a reference cycle, which with
        the collector off would keep every settled batch alive.
        """
        if self.controller.retry_policy is not None:
            return self.on_request
        return self.count_down

    def count_down(self, req: IORequest) -> None:
        """:meth:`on_request` without a retry policy: settle, never retry.

        No policy means no fault plan (the controller defaults a policy
        for every plan), so an error here is an LSE, never transient.
        """
        self.outstanding -= 1
        if req.error:
            self.failed.append(req)
        if self.primed and self.outstanding == 0:
            self.on_settled(self.failed)

    def on_request(self, req: IORequest) -> None:
        """The hook under a retry policy: time out, retry or settle."""
        ctrl = self.controller
        policy = ctrl.retry_policy
        stats = ctrl.fault_stats
        obs = ctrl._obs
        self.outstanding -= 1
        timed_out = (
            policy.timeout_s is not None
            and not req.error
            and req.latency > policy.timeout_s
        )
        if timed_out:
            stats.timeouts += 1
            obs.timeouts.inc()
        retryable = (req.error and req.error_kind == "transient") or timed_out
        if retryable and req.attempt + 1 < policy.max_attempts:
            delay = policy.backoff_s(req.attempt, ctrl._retry_rng)
            stats.retries += 1
            stats.backoff_time_s += delay
            obs.retries.inc()
            obs.backoff_s.inc(delay)
            retry = IORequest(
                disk=req.disk,
                offset=req.offset,
                size=req.size,
                kind=req.kind,
                priority=req.priority,
                tag=req.tag,
                attempt=req.attempt + 1,
                root_id=req.chain_id,
            )
            self.outstanding += 1
            ctrl.array.sim.schedule_call(delay, ctrl.array.submit, retry, self.on_request)
            return
        if req.error:
            if retryable:  # out of attempts on a retryable error
                stats.abandoned_requests += 1
                obs.abandoned.inc()
            self.failed.append(req)
        elif timed_out:
            stats.slow_reads_accepted += 1
            obs.slow_accepted.inc()
        if self.primed and self.outstanding == 0:
            self.on_settled(self.failed)


class _RebuildPass:
    """What the stripes of one phased rebuild sweep share.

    One object per :meth:`RaidController._rebuild_pass`; each stripe of
    each phase runs as a :class:`_StripeTask` that points back here.
    Stripes start in ``pending`` order through :meth:`launch`, which
    runs a stripe that settles at once (a phase with nothing to read)
    and the stripes it hands on to in a loop rather than by recursion,
    in the order a recursive hand-on would start them.
    """

    __slots__ = (
        "ctrl",
        "entries",
        "n_phases",
        "phase_idx",
        "pending",
        "dead_stripes",
        "completed",
        "lost",
        "stats",
        "counting",
        "write_spare",
        "spare_of",
        "throttle",
        "dead_before",
        "ts_progress",
        "total_stripes",
        "starting",
        "chained",
    )

    def __init__(
        self,
        ctrl: "RaidController",
        n_phases: int,
        completed: dict[int, set[int]],
        lost: list[tuple[int, int]],
        stats: FaultStats,
        counting: bool,
        write_spare: bool,
        spare_of: dict[int, int],
        throttle: "RebuildThrottle | None",
    ) -> None:
        self.ctrl = ctrl
        #: stripe -> (plan, compiled phases); shared, read-only
        self.entries: dict[int, tuple[ReconstructionPlan, tuple[CompiledPhase, ...]]] = {}
        self.n_phases = n_phases
        self.phase_idx = 0
        self.pending: deque[int] = deque()
        self.dead_stripes: set[int] = set()
        self.completed = completed
        self.lost = lost
        self.stats = stats
        self.counting = counting
        self.write_spare = write_spare
        self.spare_of = spare_of
        # consulted per stripe, so feedback policies see the live clock
        self.throttle = throttle
        self.dead_before = len(ctrl._dead_disks)
        # flight-recorder progress feed: one point per rebuilt stripe
        # (the phase barrier alone would give a single-failure rebuild
        # a one-point "curve"); None when no recorder is installed
        self.ts_progress = ctrl._obs.ts_progress if completed else None
        self.total_stripes = len(completed) * ctrl.n_stripes
        self.starting = False
        self.chained = False

    def interrupted(self) -> bool:
        """Whether another disk died since the pass began."""
        return len(self.ctrl._dead_disks) > self.dead_before

    def launch(self, stripe: int) -> None:
        """Start ``stripe``, then every stripe a synchronous settle hands on to."""
        self.starting = True
        try:
            while True:
                self.chained = False
                _StripeTask(self, stripe).start()
                if not self.chained:
                    return
                stripe = self._pop()
                if stripe is None:
                    return
        finally:
            self.starting = False

    def next_stripe(self) -> None:
        """A stripe settled: start the next pending one, if any."""
        if self.starting:
            # inside launch(): its loop starts the next stripe
            self.chained = True
            return
        stripe = self._pop()
        if stripe is not None:
            self.launch(stripe)

    def _pop(self) -> int | None:
        pending = self.pending
        while pending and not self.interrupted():
            stripe = pending.popleft()
            if stripe not in self.dead_stripes:
                return stripe
        return None

    def fail_stripe_from(self, stripe: int, shift: int, from_idx: int) -> None:
        """Lose the stripe's current and dependent later phases."""
        ctrl = self.ctrl
        n_disks = ctrl.stack.n_disks
        phases = self.entries[stripe][1]
        for k in range(from_idx, self.n_phases):
            pfk = (phases[k].failed_disk + shift) % n_disks
            ctrl._record_loss((pfk,), stripe, self.lost, self.stats)
        self.dead_stripes.add(stripe)


class _StripeTask:
    """One stripe's share of one rebuild phase, from its reads to its hand-on.

    Placement is arithmetic: logical disk ``d`` sits on physical
    ``(d + shift) % n_disks`` and row ``r`` in slot ``base + r``.  The
    phase's reads were coalesced once per failure class
    (:meth:`~repro.core.reconstruction.CompiledPhase.runs_at`), so a
    stripe's requests are its runs moved to its first slot.
    """

    __slots__ = ("run", "stripe", "shift", "base", "plan", "phase", "pf", "fallback")

    def __init__(self, run: _RebuildPass, stripe: int) -> None:
        stack = run.ctrl.stack
        self.run = run
        self.stripe = stripe
        self.shift = shift = stack.shift(stripe)
        self.base = stripe * stack.rows
        self.plan, phases = run.entries[stripe]
        self.phase = phase = phases[run.phase_idx]
        self.pf = (phase.failed_disk + shift) % stack.n_disks
        self.fallback: CompiledSteps | None = None

    def start(self) -> None:
        run = self.run
        if run.throttle is not None:
            delay = run.throttle.delay_s(run.ctrl.array.now, self.phase.n_reads)
            if delay > 0:
                run.ctrl.array.sim.schedule(delay, self.submit)
                return
        self.submit()

    def submit(self) -> None:
        ctrl = self.run.ctrl
        base = self.base
        runs = [(d, base + lo, base + hi) for d, lo, hi in self.phase.runs_at(self.shift)]
        batch = _RetryBatch(ctrl, self.on_settled)
        batch.outstanding = len(runs)
        batch.primed = True
        ctrl.array.submit_runs(
            runs, IOKind.READ, n_ops=self.phase.n_reads, tag="rebuild", callback=batch.callback
        )
        if not runs:
            self.on_settled([])

    def on_settled(self, failed_reqs: list[IORequest]) -> None:
        ctrl = self.run.ctrl
        if not failed_reqs and ctrl.lse is None and not ctrl._dead_disks:
            # nothing failed and nothing can have: no source to re-route
            ctrl._apply_steps(self.stripe, self.phase.steps)
            self.finish_ok()
            return
        bad = self.bad_source_cells()
        dead = set(ctrl._dead_disks)
        n_disks = ctrl.stack.n_disks
        base = self.base
        esize = ctrl.array.element_size
        read_set = self.phase.read_set
        for req in failed_reqs:
            disk = (req.disk - self.shift) % n_disks
            first = req.offset // esize
            last = (req.offset + req.size - 1) // esize
            for slot in range(first, last + 1):
                cell = (disk, slot - base)
                if cell in read_set:
                    bad.add(cell)
        if dead:
            # sources whose disk died after the reads were submitted: the
            # store no longer holds their bytes
            for cell in self.phase.reads:
                if (cell[0] + self.shift) % n_disks in dead:
                    bad.add(cell)
        if not bad:
            ctrl._apply_steps(self.stripe, self.phase.steps)
            self.finish_ok()
            return
        run = self.run
        stripe = self.stripe
        plan = self.plan
        try:
            steps, extra = ctrl._lse_substitute(
                stripe, plan, self.phase.phase, bad, dead_physical=dead
            )
        except UnrecoverableFailureError:
            dead_driven = any(
                c[0] not in plan.failed_disks and ctrl.place(stripe, c)[0] in dead
                for c in bad
            )
            if run.counting and dead_driven and run.interrupted():
                # recoverable once the caller regroups with the enlarged
                # failure set — defer, not lose
                run.next_stripe()
                return
            if not run.counting:
                raise
            run.fail_stripe_from(stripe, self.shift, run.phase_idx)
            run.next_stripe()
            return
        run.stats.rerouted_reads += len(bad)
        ctrl._obs.rerouted.inc(len(bad))
        extra_phys = sorted(
            {ctrl.place(stripe, c) for c in extra if c[0] not in plan.failed_disks}
        )
        self.fallback = CompiledSteps(steps, plan.failed_disks, n_disks)
        ctrl._submit_reads_with_retry(extra_phys, "lse-fallback", self.finish_fallback)

    def bad_source_cells(self) -> set[tuple[int, int]]:
        """Phase source cells that hit an LSE on their physical slot."""
        lse = self.run.ctrl.lse
        if lse is None:
            return set()
        n_disks = self.run.ctrl.stack.n_disks
        return {
            (disk, row)
            for disk, row in self.phase.reads
            if lse.is_bad((disk + self.shift) % n_disks, self.base + row)
        }

    def finish_fallback(self, fb_failed: list[IORequest]) -> None:
        run = self.run
        if fb_failed:
            if not run.counting:
                raise UnrecoverableFailureError(
                    f"fallback sources unreadable during "
                    f"reconstruction of stripe {self.stripe}"
                )
            run.fail_stripe_from(self.stripe, self.shift, run.phase_idx)
            run.next_stripe()
            return
        run.ctrl._apply_steps(self.stripe, self.fallback)
        self.finish_ok()

    def finish_ok(self) -> None:
        run = self.run
        ctrl = run.ctrl
        pf = self.pf
        run.completed[pf].add(self.stripe)
        if run.ts_progress is not None:
            run.ts_progress.observe(
                ctrl.array.now,
                sum(len(v) for v in run.completed.values()) / run.total_stripes,
            )
        rows = ctrl.stack.rows
        base = self.base
        if ctrl.lse is not None:
            # every sector of the rebuilt column was just rewritten (or
            # lives on a fresh spare): latent errors recorded there die
            # with the old media
            for slot in range(base, base + rows):
                ctrl.lse.heal(pf, slot)
        if run.write_spare and pf in run.spare_of:
            ctrl.array.submit_runs(
                [(run.spare_of[pf], base, base + rows)],
                IOKind.WRITE,
                n_ops=rows,
                tag="rebuild-write",
            )
            ctrl._obs.spare_writes.inc()
        run.next_stripe()


def _template(
    layout: Layout, n_stripes: int, rotate: bool, payload_bytes: int, film_seed: int
) -> tuple[RotatedStack, np.ndarray]:
    """The placement and initial content every such controller starts from.

    Both are a pure function of the layout and these four settings, so
    they are built once and kept on the layout (freed with it): the
    :class:`~repro.core.stack.RotatedStack`, and the ``(n_disks, slots,
    payload)`` store of the encoded film scattered through it, read-only.
    A controller copies the content into its own store and never writes
    the template.
    """
    key = (n_stripes, rotate, payload_bytes, film_seed)
    templates = layout._controller_templates
    found = templates.get(key)
    if found is not None:
        return found
    stack = RotatedStack(layout, n_stripes, rotate=rotate)
    # XOR codes act on each byte position alone, so the stripes ride
    # along the byte axis: one encode of the whole film, then one
    # scatter through the stack's placement
    d, rows, n_j = layout.n_disks, layout.rows, layout.data_rows
    film = FilmSource(payload_bytes, film_seed).block(n_stripes, layout.n, n_j)
    encoded = layout.encode(
        film.transpose(2, 1, 0, 3).reshape(n_j, layout.n, n_stripes * payload_bytes)
    ).reshape(d, rows, n_stripes, payload_bytes)
    content = np.zeros((d, n_stripes * rows, payload_bytes), dtype=np.uint8)
    content.reshape(d, n_stripes, rows, payload_bytes)[stack.placement] = encoded.transpose(
        0, 2, 1, 3
    )
    content.setflags(write=False)
    found = templates[key] = (stack, content)
    return found


class RaidController:
    """Drive one RAID architecture over a simulated disk array.

    Parameters
    ----------
    layout:
        The architecture (any :class:`~repro.core.layouts.Layout`).
    n_stripes:
        Stripes laid out per disk (each adds ``layout.rows`` element
        slots per disk).
    element_size:
        Simulated bytes per element (timing); default 4 MB as in §VII.
    payload_bytes:
        Verification-store bytes per element (correctness).
    rotate:
        Rotate logical roles across stripes (see
        :class:`~repro.core.stack.RotatedStack`).
    spares:
        Extra hot-spare disks appended after the architecture's disks,
        used as rebuild targets when ``write_spare`` is requested.
    fault_plan:
        Optional :class:`~repro.disksim.faultplan.FaultPlan`; activating
        it wires transient errors, fail-slow drives, LSEs and scheduled
        whole-disk failures into the array, and switches rebuilds into
        *counting* mode: unrecoverable columns are recorded as data-loss
        events in :class:`FaultStats` instead of raising.  Mutually
        exclusive with ``lse``.
    retry_policy:
        Read retry/backoff policy; defaults to :class:`RetryPolicy`'s
        defaults when a fault plan is present, otherwise no retries.
    plan_cache:
        Memoise reconstruction plans per logical failure set (see
        :class:`~repro.core.plancache.PlanCache`).  On by default;
        ``False`` re-derives every stripe's plan, which only the
        perf-regression harness wants.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer` (a fresh track
        group labelled with the layout's name is reserved on it) or an
        already-labelled :class:`~repro.obs.tracing.TraceGroup`.  With
        neither, the process default tracer applies; ``False`` opts
        this controller out of tracing entirely (yardstick runs).
    """

    def __init__(
        self,
        layout: Layout,
        n_stripes: int = 8,
        element_size: int = DEFAULT_ELEMENT_SIZE,
        params: DiskParameters | None = None,
        scheduler_factory: Callable[[], Scheduler] = ElevatorScheduler,
        payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
        rotate: bool = False,
        spares: int = 0,
        film_seed: int = 2012,
        lse: LatentSectorErrors | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        plan_cache: bool = True,
        tracer=None,
    ) -> None:
        self.layout = layout
        self.plan_cache = PlanCache(layout, enabled=plan_cache)
        self.stack, initial = _template(layout, n_stripes, rotate, payload_bytes, film_seed)
        self.n_stripes = n_stripes
        self.spares = spares
        slots = n_stripes * layout.rows
        self.fault_plan = fault_plan
        self.active_faults: ActiveFaults | None = None
        if fault_plan is not None:
            if lse is not None:
                raise ValueError("pass either lse or fault_plan, not both")
            self.active_faults = fault_plan.activate(
                element_size, layout.n_disks + spares, slots
            )
            lse = self.active_faults.lse
        self.lse = lse
        if lse is not None and lse.element_size != element_size:
            raise ValueError(
                f"LSE model element size {lse.element_size} disagrees with "
                f"array element size {element_size}"
            )
        # resolve the trace sink once: an explicit Tracer gets a track
        # group labelled with the layout's name (so two arrangements in
        # one campaign render side by side), a TraceGroup is used
        # as-is, ``False`` opts out even when a default tracer is set
        if tracer is False:
            trace = None
        elif tracer is not None:
            trace = tracer
        else:
            trace = default_tracer()
        group = trace.group(layout.name) if isinstance(trace, Tracer) else trace
        self.array = ElementArray(
            layout.n_disks + spares,
            element_size,
            params,
            scheduler_factory,
            faults=self.active_faults if self.active_faults is not None else lse,
            tracer=group if group is not None else False,
        )
        if group is not None:
            group.name_track(layout.n_disks + spares, "rebuild controller")
        #: controller instruments — null no-ops when observability is
        #: off, so call sites need no branches
        self._obs = _CtrlObs(group, layout.n_disks + spares, layout.name)
        if retry_policy is None and fault_plan is not None:
            retry_policy = RetryPolicy()
        self.retry_policy = retry_policy
        #: seeds the backoff-jitter stream, :attr:`_retry_rng`
        self._retry_seed = fault_plan.seed if fault_plan is not None else film_seed
        self.fault_stats = FaultStats()
        self.film = FilmSource(payload_bytes, film_seed)
        self.payload_bytes = payload_bytes
        # the template's encoded film in the architecture's disks; hot
        # spares start zeroed
        self.content = np.zeros(
            (layout.n_disks + spares, slots, payload_bytes), dtype=np.uint8
        )
        self.content[: layout.n_disks] = initial
        #: the same store, one row per element: compiled recovery
        #: groups index it with flat cell numbers
        self._cell_rows = self.content.reshape(-1, payload_bytes)
        self._decoded: set[tuple[int, tuple[int, ...]]] = set()
        #: disks killed by scheduled :class:`DiskFailure` events, in
        #: death order; content snapshots taken at the moment of death
        self._dead_disks: list[int] = []
        self._death_snapshots: dict[int, np.ndarray] = {}
        self._death_times: dict[int, float] = {}
        self._rebuilding: tuple[int, ...] = ()
        #: completed write ops whose content is not yet in the store, and
        #: the generator their payloads come from (see
        #: :meth:`run_write_workload`)
        self._write_log: list[tuple[int, CompiledWrite]] = []
        self._write_rng: np.random.Generator | None = None
        if fault_plan is not None:
            for df in fault_plan.disk_failures:
                self.array.sim.schedule(
                    df.time_s, lambda d=df.disk: self._on_disk_death(d)
                )

    @cached_property
    def _retry_rng(self) -> np.random.Generator:
        """The backoff-jitter stream, built at the first retry.

        Derived from the campaign seed (the fault plan's, else the
        film's); the spawn key keeps it independent of the fault
        injection stream.  Never ambient randomness.
        """
        return np.random.default_rng(
            np.random.SeedSequence(self._retry_seed, spawn_key=(0xB0FF,))
        )

    def _on_disk_death(self, disk: int) -> None:
        """A scheduled whole-disk failure fires: the bytes are gone."""
        if disk in self._dead_disks or disk in self._rebuilding:
            return
        # the writes that completed before the death are on the platters
        self._flush_writes()
        self._death_snapshots[disk] = self.content[disk].copy()
        self._death_times[disk] = self.array.now
        self.content[disk] = 0xDD
        self._dead_disks.append(disk)

    # ==================================================================
    # placement and content
    # ==================================================================
    def place(self, stripe: int, cell: tuple[int, int]) -> tuple[int, int]:
        """Physical ``(disk, slot)`` of a logical stripe cell."""
        disk, row = cell
        return self.stack.place(stripe, disk, row)

    def element_content(self, stripe: int, cell: tuple[int, int]) -> np.ndarray:
        """Current payload of a logical stripe cell."""
        pd, slot = self.place(stripe, cell)
        return self.content[pd, slot]

    # ==================================================================
    # reconstruction
    # ==================================================================
    def stripe_plan(self, stripe: int, failed_physical) -> ReconstructionPlan:
        """The stripe's logical reconstruction plan for a physical failure.

        Served from the controller's :class:`PlanCache`: stripes whose
        rotation maps the failure onto the same logical set share one
        derivation.  The returned plan is shared — treat as immutable.
        """
        logical = tuple(
            sorted(self.stack.logical_disk(stripe, f) for f in failed_physical)
        )
        return self.plan_cache.plan(logical)

    def _submit_reads_with_retry(
        self,
        cells,
        tag: str,
        on_settled: Callable[[list[IORequest]], None],
        priority: int = 10,
    ) -> None:
        """Submit element reads, retrying per the controller's policy.

        Transient errors and (when a timeout is configured) too-slow
        reads are resubmitted with exponential backoff priced in
        simulated time.  ``on_settled`` fires once every read has
        either succeeded or exhausted its retries, receiving the
        requests that still carry an error.  A read that only ran out
        of *timeout* retries is accepted — the bytes did arrive, late —
        and counted in ``fault_stats.slow_reads_accepted``.

        The bookkeeping lives in one slotted :class:`_RetryBatch`
        object per batch; its bound method is the per-request callback,
        so no closure cells are allocated on this path.  The compiled
        rebuild phases use the same object for their reads.
        """
        batch = _RetryBatch(self, on_settled)
        reqs = self.array.submit_elements(
            cells, IOKind.READ, priority=priority, tag=tag, callback=batch.callback
        )
        batch.outstanding += len(reqs)
        batch.primed = True
        if not reqs:
            on_settled([])

    def _record_loss(self, disks, stripe: int, lost, stats: FaultStats) -> None:
        for d in disks:
            if (d, stripe) not in lost:
                lost.append((d, stripe))
                stats.data_loss_events += 1

    def _group_rebuild_work(self, tracked, completed, lost):
        """Stripes still to rebuild, grouped by their active failure set.

        After a mid-rebuild failure the already-rebuilt stripes of the
        first disk see a *different* failure set than the rest — each
        group gets its own reconstruction plans.
        """
        lost_set = set(lost)
        groups: dict[tuple[int, ...], list[int]] = {}
        for s in range(self.n_stripes):
            active = tuple(
                d
                for d in sorted(tracked)
                if s not in completed[d] and (d, s) not in lost_set
            )
            if active:
                groups.setdefault(active, []).append(s)
        return list(groups.items())

    def rebuild(
        self,
        failed_disks,
        window: int = 4,
        verify: bool = True,
        write_spare: bool = False,
        throttle: "RebuildThrottle | None" = None,
        resume_from: RebuildCheckpoint | None = None,
    ) -> RebuildResult:
        """Reconstruct the failed *physical* disks across every stripe.

        Failed disks are rebuilt one at a time, the way a hot spare
        replaces one device: the plan is split into sequential
        *phases*, one per failed disk (plus the parity-recompute phase
        if the parity disk is among them).  Within a phase, stripes are
        pipelined ``window`` at a time: each stripe's phase reads are
        submitted together; once they complete, the phase's recovery
        steps execute against the content store (and, if requested, the
        recovered elements are written to hot spares).

        ``throttle`` inserts a pause before each stripe's reads — the
        classic rebuild-rate limit (md's ``speed_limit``) that trades
        reconstruction time for user-I/O headroom.  It is any policy
        exposing ``delay_s(now, n_ios) -> float``, consulted per stripe
        so feedback policies see the live clock:
        :class:`~repro.workloads.openloop.FixedThrottle` (a constant
        pause), :class:`~repro.workloads.openloop.TokenBucketThrottle`
        or :class:`~repro.workloads.openloop.LatencyTargetThrottle`.  The
        paper notes its arrangement is *orthogonal* to such
        reconstruction optimisations [10, 11];
        ``benchmarks/bench_ablation_throttle.py`` measures exactly that
        interaction.

        With a fault plan active, reads run under the retry policy, and
        a disk that dies mid-rebuild enlarges the failure set on the
        fly: stripes are regrouped by their *remaining* failures and
        re-planned (RAID 6 / mirror-parity survive; a plain mirror's
        overlapping columns become counted data-loss events instead of
        an exception).  ``resume_from`` restarts an interrupted rebuild
        from its checkpoint, redoing only the remainder.

        Returns aggregate timing plus the byte-for-byte verification
        verdict (the paper's §VII-A post-check) and the run's
        :class:`FaultStats`.
        """
        failed = tuple(sorted(set(failed_disks)))
        for f in failed:
            if not 0 <= f < self.layout.n_disks:
                raise ValueError(f"failed disk {f} outside the architecture")
        if write_spare and self.spares < len(failed):
            raise ValueError(
                f"rebuild of {len(failed)} disks to spares needs >= {len(failed)} "
                f"spares, have {self.spares}"
            )
        counting = self.active_faults is not None
        stats = FaultStats()
        self.fault_stats = stats
        healed_before = self.lse.healed_count if self.lse is not None else 0

        completed: dict[int, set[int]] = {f: set() for f in failed}
        lost: list[tuple[int, int]] = []
        if resume_from is not None:
            for d, done in resume_from.completed.items():
                completed.setdefault(d, set()).update(done)
            lost.extend(resume_from.lost)
            for d, s in resume_from.lost:
                completed.setdefault(d, set())
        tracked: list[int] = sorted(completed)

        # snapshot the lost content, then destroy the part still to do
        snapshots = {f: self.content[f].copy() for f in tracked}
        for f in tracked:
            if not completed[f]:
                self.content[f] = 0xDD
                continue
            for s in range(self.n_stripes):
                if s in completed[f]:
                    continue
                for row in range(self.layout.rows):
                    self.content[f, self.stack.element_offset(s, row)] = 0xDD

        start = self.array.now
        n_completed_before = len(self.array.sim.completed)
        bytes_read_before = self.array.sim.total_bytes_read
        bytes_written_before = self.array.sim.total_bytes_written
        spare_of = {f: self.layout.n_disks + k for k, f in enumerate(failed)}
        self._rebuilding = tuple(tracked)
        max_accesses = 0
        try:
            while True:
                groups = self._group_rebuild_work(tracked, completed, lost)
                if not groups:
                    break
                for fset, stripes in groups:
                    max_accesses = max(
                        max_accesses,
                        self._rebuild_pass(
                            fset,
                            stripes,
                            completed,
                            lost,
                            stats,
                            window,
                            write_spare,
                            spare_of,
                            throttle,
                            counting,
                        ),
                    )
                    # a death is only *this* rebuild's problem if it fired
                    # while rebuild I/O was still in flight; the event
                    # drain also pops deaths scheduled far in the future
                    last_io = self.array.sim.max_finish_time_since(
                        n_completed_before, default=start
                    )
                    new_dead = [
                        d
                        for d in self._dead_disks
                        if d not in tracked
                        and d < self.layout.n_disks
                        and self._death_times[d] <= last_io
                    ]
                    if new_dead:
                        for d in new_dead:
                            tracked.append(d)
                            completed.setdefault(d, set())
                            snapshots[d] = self._death_snapshots[d]
                        tracked.sort()
                        self._rebuilding = tuple(tracked)
                        stats.mid_rebuild_failures = tuple(
                            sorted(set(stats.mid_rebuild_failures) | set(new_dead))
                        )
                        break  # regroup with the enlarged failure set
        finally:
            self._rebuilding = ()

        if self.fault_plan is not None:
            # death events may advance the clock far past the last I/O;
            # price the rebuild by its actual request completions
            makespan = (
                self.array.sim.max_finish_time_since(n_completed_before, default=start)
                - start
            )
        else:
            makespan = self.array.now - start
        bytes_read = self.array.sim.total_bytes_read - bytes_read_before
        bytes_written = self.array.sim.total_bytes_written - bytes_written_before
        recovered = (
            sum(len(v) for v in completed.values())
            * self.layout.rows
            * self.array.element_size
        )
        if not verify:
            verified = True
        elif lost:
            verified = False
        elif resume_from is not None:
            # the pre-resume snapshot holds destroyed bytes for the
            # remainder; check global redundancy consistency instead
            verified = self.verify_redundancy()
        else:
            verified = all(
                np.array_equal(self.content[d], snapshots[d]) for d in tracked
            )
        stats.healed_lses = (
            self.lse.healed_count - healed_before if self.lse is not None else 0
        )
        if self.active_faults is not None:
            stats.transient_errors = self.active_faults.counters.transient_errors
        stats.lost_columns = list(lost)
        fully_restored = not lost and all(
            len(completed[d]) == self.n_stripes for d in tracked
        )
        checkpoint = None
        if not fully_restored:
            checkpoint = RebuildCheckpoint(
                failed_disks=tuple(tracked),
                n_stripes=self.n_stripes,
                completed={d: frozenset(v) for d, v in completed.items()},
                lost=tuple(lost),
            )
        return RebuildResult(
            failed_disks=failed,
            makespan_s=makespan,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            read_throughput_mbps=(bytes_read / _MB / makespan) if makespan > 0 else 0.0,
            recovered_bytes=recovered,
            recovered_throughput_mbps=(recovered / _MB / makespan) if makespan > 0 else 0.0,
            verified=verified,
            max_read_accesses_per_stripe=max_accesses,
            fault_stats=stats,
            checkpoint=checkpoint,
            aborted=bool(lost),
        )

    def _rebuild_pass(
        self,
        fset,
        stripes,
        completed,
        lost,
        stats: FaultStats,
        window: int,
        write_spare: bool,
        spare_of,
        throttle: "RebuildThrottle | None",
        counting: bool,
    ) -> int:
        """One phased rebuild sweep of ``stripes`` for failure set ``fset``.

        Each stripe's logical failure set selects its plan and its
        compiled phases from the :class:`PlanCache`
        (:meth:`~repro.core.plancache.PlanCache.compiled_phases`); a
        stripe of a phase then runs as one :class:`_StripeTask`, which
        places the phase's precoalesced read runs and recovery groups by
        arithmetic and submits the runs through
        :meth:`~repro.disksim.array.ElementArray.submit_runs`.  Up to
        ``window`` stripes are in flight; each settled stripe starts the
        next, and a phase ends at the barrier of ``array.run()``.  LSE
        fallback, dead-source re-routing and data-loss counting take the
        general path only when a read failed, a disk died or an LSE
        model is attached.

        Stops seeding new work as soon as an additional disk death is
        detected — the caller regroups the remainder under the enlarged
        failure set.  Returns the stripes' max parallel-read-access
        count (the paper's Table access metric).
        """
        fset = tuple(sorted(fset))
        stack = self.stack
        n_disks = stack.n_disks
        cache = self.plan_cache
        run = _RebuildPass(
            self,
            len(fset),
            completed,
            lost,
            stats,
            counting,
            write_spare,
            spare_of,
            throttle,
        )
        entries = run.entries
        plannable: list[int] = []
        for s in stripes:
            shift = stack.shift(s)
            logical = tuple(sorted((f - shift) % n_disks for f in fset))
            try:
                plan = cache.plan(logical)
            except UnrecoverableFailureError:
                if not counting:
                    raise
                self._record_loss(fset, s, lost, stats)
                continue
            # plans and compiled phases are shared across same-class
            # stripes (and across rebuilds): read-only from here on
            entries[s] = (plan, cache.compiled_phases(logical))
            plannable.append(s)
        max_accesses = max(
            (plan.num_read_accesses for plan, _ in entries.values()), default=0
        )
        for phase_idx in range(run.n_phases):
            if run.interrupted():
                break
            run.phase_idx = phase_idx
            pending = run.pending = deque(
                s for s in plannable if s not in run.dead_stripes
            )
            n_phase_stripes = len(pending)
            t0 = self.array.now
            seeded = 0
            while pending and seeded < window:
                run.launch(pending.popleft())
                seeded += 1
            self.array.run()  # phase barrier
            self._obs.phase_span(
                t0,
                self.array.now,
                phase_idx,
                fset,
                n_phase_stripes,
                stripes_done=sum(len(v) for v in completed.values()),
                stripes_total=len(completed) * self.n_stripes,
                phase_bytes=n_phase_stripes * self.layout.rows * self.array.element_size,
            )
        return max_accesses

    # ------------------------------------------------------------------
    # latent sector error handling (see repro.disksim.faults)
    # ------------------------------------------------------------------
    def _lse_substitute(
        self,
        stripe: int,
        plan: ReconstructionPlan,
        phase: RebuildPhase,
        bad: set[tuple[int, int]],
        dead_physical: set[int] | None = None,
    ) -> tuple[list[RecoveryStep], list[tuple[int, int]]]:
        """Re-route recovery steps around unreadable source elements.

        Returns the substituted step list plus the extra source cells
        the fallback must read.  Each step with a ``bad`` source is
        replaced by :meth:`~repro.core.layouts.Layout.read_sources` of
        its target, with unavailable: the ``bad`` cells, the columns
        this or a later phase rebuilds, the ``dead_physical`` disks
        (killed mid-rebuild) and every latent sector error.  Only the
        mirror method with parity re-routes: the plain mirror method
        *loses data* when its single replica is unreadable — precisely
        the LSE-during-reconstruction hazard §I cites.
        """
        lay = self.layout
        if not isinstance(lay, MirrorParityLayout):
            raise UnrecoverableFailureError(
                f"{lay.name}: source {sorted(bad)} unreadable (latent sector "
                f"error) during reconstruction and no redundancy remains"
            )
        failed = set(plan.failed_disks)
        waiting = plan.failed_disks[plan.failed_disks.index(phase.failed_disk):]
        dead = dead_physical if dead_physical is not None else set()
        lse = self.lse
        unavailable = set(bad)
        for disk in range(lay.n_disks):
            if disk in failed:
                # only elements recovered by an *earlier* phase exist
                if disk in waiting:
                    unavailable.update((disk, row) for row in range(lay.rows))
                continue
            for row in range(lay.rows):
                pd, slot = self.place(stripe, (disk, row))
                if pd in dead or (lse is not None and lse.is_bad(pd, slot)):
                    unavailable.add((disk, row))

        new_steps: list[RecoveryStep] = []
        extra: list[tuple[int, int]] = []
        for step in phase.steps:
            if bad.isdisjoint(step.sources):
                new_steps.append(step)
                continue
            alt = lay.read_sources(step.target, unavailable)
            if alt is None:
                raise UnrecoverableFailureError(
                    f"cell {step.target}: sources {sorted(bad)} unreadable and "
                    f"the parity path is also damaged"
                )
            new_steps.append(alt)
            extra.extend(
                cell for cell in alt.sources
                if cell[0] not in failed and cell not in step.sources
            )
        return new_steps, extra

    # ------------------------------------------------------------------
    def _apply_steps(self, stripe: int, steps: CompiledSteps) -> None:
        """Run compiled recovery steps against the stripe's content.

        Each group stores the XOR of its gathered sources (one source:
        a copy) into its targets, placed at the stripe's rotation shift
        and first slot of the store viewed as one row per element.
        """
        flat = self._cell_rows
        base = stripe * self.stack.rows
        for group in steps.at(self.stack.shift(stripe), self.content.shape[1]):
            if group is None:
                self._decode_stripe(stripe, steps.failed_disks)
                continue
            k, targets, sources = group
            if k == 1:
                flat[targets + base] = flat[sources + base]
            else:
                flat[targets + base] = np.bitwise_xor.reduce(flat[sources + base], axis=1)

    def _decode_stripe(self, stripe: int, failed_disks: tuple[int, ...]) -> None:
        """One decode restores every failed column of the stripe (CODE steps)."""
        key = (stripe, failed_disks)
        if key in self._decoded:
            return
        lay = self.layout
        disks, slots = self.stack.cells(stripe)
        failed = list(failed_disks)
        block = lay.encode(lay.decode(self.content[disks, slots], failed))
        self.content[disks[failed], slots[failed]] = block[failed]
        self._decoded.add(key)
        self._obs.decodes.inc()

    # ==================================================================
    # writes
    # ==================================================================
    def run_write_workload(
        self,
        ops: list[WriteOp],
        strategy: str = "rmw",
        window: int = 4,
        rng: np.random.Generator | None = None,
    ) -> WriteResult:
        """Execute a write workload with read-before-write dependencies.

        Each op's parity-input reads are issued first; its writes only
        start once they complete.  Ops are pipelined ``window`` deep.
        Throughput is user data written per wall-clock second — the
        Fig. 10 metric.

        An op submits its compiled read and write runs placed at its
        stripe, and on completion joins the pending log.  The log's
        content lands in one pass (:meth:`_flush_writes`) when the run
        ends, or earlier when a disk dies and its bytes are
        snapshotted: the store then holds what per-op updates in
        completion order would have left, with payloads drawn from
        ``rng`` in that order.
        """
        if rng is None:
            rng = np.random.default_rng(7)
        start = self.array.now
        read_before = self.array.sim.total_bytes_read
        written_before = self.array.sim.total_bytes_written
        pending = deque(ops)
        write_plan = self.plan_cache.write_plan
        submit_runs = self.array.submit_runs
        stack = self.stack
        rows = stack.rows
        n_stripes = self.n_stripes
        log = self._write_log
        self._write_rng = rng

        def start_op(op: WriteOp) -> None:
            stripe = op.stripe
            if not 0 <= stripe < n_stripes:
                raise IndexError(f"stripe {stripe} outside stack of {n_stripes}")
            entry = write_plan(op.elements, strategy)
            reads, writes = entry.runs_at(stack.shift(stripe))
            base = stripe * rows

            def op_done() -> None:
                log.append((stripe, entry))
                if pending:
                    start_op(pending.popleft())

            def do_writes() -> None:
                submit_runs(
                    [(d, base + lo, base + hi) for d, lo, hi in writes],
                    IOKind.WRITE,
                    n_ops=len(entry.writes[0]),
                    tag="write",
                    on_complete=op_done,
                )

            if reads:
                submit_runs(
                    [(d, base + lo, base + hi) for d, lo, hi in reads],
                    IOKind.READ,
                    n_ops=len(entry.reads[0]),
                    tag="rmw-read",
                    on_complete=do_writes,
                )
            else:
                do_writes()

        user_bytes = sum(op.n_elements for op in ops) * self.array.element_size
        try:
            seeded = 0
            while pending and seeded < window:
                start_op(pending.popleft())
                seeded += 1
            self.array.run()
        finally:
            self._flush_writes()
            self._write_rng = None
        # start_op reaches itself through its completions' closures; the
        # cycle would keep this controller (store, plan cache) alive
        # until a garbage-collector pass
        del start_op
        makespan = self.array.now - start
        return WriteResult(
            n_ops=len(ops),
            makespan_s=makespan,
            user_bytes=user_bytes,
            write_throughput_mbps=(user_bytes / _MB / makespan) if makespan > 0 else 0.0,
            bytes_read=self.array.sim.total_bytes_read - read_before,
            bytes_written=self.array.sim.total_bytes_written - written_before,
        )

    def _flush_writes(self) -> None:
        """Install the pending log's payloads: one draw, encode and scatter.

        The log holds one ``(stripe, compiled write)`` per completed op,
        in completion order.  One :meth:`FilmSource.fresh` call draws
        every op's payloads, which gives the bytes (and leaves the
        generator in the state) one draw per op would.  The touched
        stripes' data is gathered once and takes each op's payloads in
        log order, so a later op's element wins.  XOR codes act on each
        byte position alone, so the stripes ride along the byte axis of
        one encode, as in :func:`_template`; the cells any op wrote then
        take their encoding in one scatter.  A cell an earlier op wrote
        depends on no element a later op changed unless the later op
        rewrote it too, so each written cell ends as the per-op updates
        would leave it.
        """
        log = self._write_log
        if not log:
            return
        lay, stack = self.layout, self.stack
        payloads = self.film.fresh(self._write_rng, sum(e.n_payloads for _, e in log))
        column = {stripe: k for k, stripe in enumerate(dict.fromkeys(s for s, _ in log))}
        stripes = np.fromiter(column, dtype=np.intp, count=len(column))
        # the touched stripes through the stack's placement, as one
        # (n_disks, rows, stripes, size) block
        store = self.content[: stack.n_disks].reshape(
            stack.n_disks, stack.n_stripes, stack.rows, self.payload_bytes
        )
        where = (stack.placement[0][:, stripes], stripes)
        block = store[where].transpose(0, 2, 1, 3)
        data = lay.data_of(block)
        written = np.zeros(block.shape[:3], dtype=bool)
        first = 0
        for stripe, entry in log:
            col = column[stripe]
            data[(*entry.data, col)] = payloads[first : first + entry.n_payloads][entry.pick]
            first += entry.n_payloads
            written[(*entry.writes, col)] = True
        log.clear()
        n_j, n = data.shape[:2]
        encoded = lay.encode(data.reshape(n_j, n, -1)).reshape(block.shape)
        store[where] = np.where(written[..., None], encoded, block).transpose(0, 2, 1, 3)

    def store_encoded(self, stripe: int, data: np.ndarray, cells) -> None:
        """Store the encoding of a data block into logical ``cells`` only.

        ``cells`` is a ``(disks, rows)`` pair of logical index arrays.
        """
        disks, slots = self.stack.cells(stripe)
        self.content[disks[cells], slots[cells]] = self.layout.encode(data)[cells]

    # ==================================================================
    # verification helpers (paper §VII-A post-check, plus invariants)
    # ==================================================================
    def verify_redundancy(self) -> bool:
        """Whether every stripe equals the encoding of its own data."""
        lay = self.layout
        for stripe in range(self.n_stripes):
            block = self.content[self.stack.cells(stripe)]
            if not np.array_equal(block, lay.encode(lay.data_of(block))):
                return False
        return True
