"""Reconstruction plans and the parallel read-access metric (§III, §IV-B, §V-B).

The paper's central quantity is the **number of read accesses** needed
to fetch everything required to recover the failed elements of one
stripe: thanks to parallel I/O, every disk can deliver one element per
access, so the number of accesses equals the *maximum number of
elements read from any single disk*.

A :class:`ReconstructionPlan` captures, for one stripe and one failure
set:

* ``reads`` — which (disk, row) elements must be fetched;
* ``steps`` — ordered recovery operations producing each lost element
  (copy from a replica, XOR of a parity set, or a full code decode);
* the derived access counts.

Plans are *pure descriptions*: :mod:`repro.raidsim` executes them
against the disk simulator, and :mod:`repro.core.analysis` counts them
symbolically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RecoveryMethod",
    "RecoveryStep",
    "ReconstructionPlan",
    "RebuildPhase",
    "CompiledSteps",
    "CompiledPhase",
    "split_into_phases",
    "compile_phases",
]


class RecoveryMethod(str, enum.Enum):
    """How one lost element is computed from its sources."""

    COPY = "copy"  # replica copy (mirror family)
    XOR = "xor"  # XOR of the sources (parity row recovery)
    CODE = "code"  # generic erasure decode (RAID 6 baselines)
    RECOMPUTE = "recompute"  # parity regenerated from data sources

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RecoveryStep:
    """Produce the element at ``target`` from ``sources``.

    ``sources`` entries are ``(disk, row)`` pairs; a source may be the
    target of an *earlier* step in the same plan (e.g. the traditional
    mirror+parity replica-pair failure first rebuilds the data column
    from parity, then copies it to the mirror column without extra
    reads).  Steps are therefore ordered.
    """

    target: tuple[int, int]
    method: RecoveryMethod
    sources: tuple[tuple[int, int], ...]


@dataclass
class ReconstructionPlan:
    """Everything needed to recover one stripe after a disk failure set.

    Attributes
    ----------
    failed_disks:
        The failed global disk ids this plan repairs.
    reads:
        ``disk -> sorted list of rows`` of elements that must be
        physically read from surviving disks.
    steps:
        Ordered recovery operations (see :class:`RecoveryStep`).
    """

    failed_disks: tuple[int, ...]
    reads: dict[int, list[int]] = field(default_factory=dict)
    steps: list[RecoveryStep] = field(default_factory=list)
    #: targets of ``steps``, kept by :meth:`add_step`
    _produced: set[tuple[int, int]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def add_read(self, disk: int, row: int) -> None:
        """Require element ``(disk, row)``; duplicates collapse."""
        rows = self.reads.setdefault(disk, [])
        if row not in rows:
            rows.append(row)
            rows.sort()

    def add_step(
        self,
        target: tuple[int, int],
        method: RecoveryMethod,
        sources,
        read_sources: bool = True,
    ) -> None:
        """Append a recovery step, registering source reads by default.

        Sources located on failed disks or produced by earlier steps are
        never read from disk; pass ``read_sources=False`` to suppress
        registration entirely (e.g. when sources were already consumed
        by another step and double-counting is handled by ``add_read``'s
        dedup anyway — the flag exists for sources that are *recovered*
        elements).
        """
        sources = tuple(sources)
        if read_sources:
            produced = self._produced
            for disk, row in sources:
                if disk in self.failed_disks or (disk, row) in produced:
                    continue
                self.add_read(disk, row)
        self.steps.append(RecoveryStep(target, method, sources))
        self._produced.add(target)

    # ------------------------------------------------------------------
    @property
    def num_read_accesses(self) -> int:
        """Max elements read from one disk == parallel read accesses (§III)."""
        if not self.reads:
            return 0
        return max(len(rows) for rows in self.reads.values())

    @property
    def total_elements_read(self) -> int:
        return sum(len(rows) for rows in self.reads.values())

    def reads_per_disk(self) -> dict[int, int]:
        return {disk: len(rows) for disk, rows in self.reads.items()}

    def validate(self, n_disks: int, rows: int) -> None:
        """Internal consistency checks (used heavily by the test suite).

        * no reads from failed disks;
        * every step source is either read, produced earlier, or lost
          forever (which would be a planner bug);
        * indices in range.
        """
        read_set = {(d, r) for d, rs in self.reads.items() for r in rs}
        for disk, rows_ in self.reads.items():
            if disk in self.failed_disks:
                raise AssertionError(f"plan reads from failed disk {disk}")
            if not 0 <= disk < n_disks:
                raise AssertionError(f"disk {disk} out of range")
            for r in rows_:
                if not 0 <= r < rows:
                    raise AssertionError(f"row {r} out of range")
        produced: set[tuple[int, int]] = set()
        for step in self.steps:
            for src in step.sources:
                disk = src[0]
                if disk in self.failed_disks and src not in produced:
                    raise AssertionError(
                        f"step for {step.target} uses unrecovered source {src} on a failed disk"
                    )
                if disk not in self.failed_disks and src not in read_set and src not in produced:
                    raise AssertionError(
                        f"step for {step.target} uses source {src} that is never read"
                    )
            produced.add(step.target)


@dataclass
class RebuildPhase:
    """One failed disk's share of a reconstruction plan.

    Real rebuilds replace one disk at a time (a hot spare per failed
    device), so the executor processes the plan as sequential *phases*,
    one per failed disk.  A phase carries the steps targeting its disk
    plus the reads those steps need that earlier phases did not already
    fetch (sources recovered by earlier phases cost nothing — they are
    in controller memory).
    """

    failed_disk: int
    reads: dict[int, list[int]] = field(default_factory=dict)
    steps: list[RecoveryStep] = field(default_factory=list)


def split_into_phases(plan: ReconstructionPlan) -> list[RebuildPhase]:
    """Split a plan into per-failed-disk phases, in target-disk order.

    Phase order follows ``plan.failed_disks`` (ascending), which the
    layout planners arrange so that dependencies only point backwards
    (e.g. a mirror column copied from data recovered via parity in an
    earlier phase).  Reads are deduplicated across phases: a source
    fetched by phase ``k`` is free for phase ``k+1``.
    """
    steps_by_disk: dict[int, list[RecoveryStep]] = {f: [] for f in plan.failed_disks}
    for step in plan.steps:
        disk = step.target[0]
        if disk not in steps_by_disk:
            raise AssertionError(f"plan step targets non-failed disk {disk}")
        steps_by_disk[disk].append(step)

    produced: set[tuple[int, int]] = set()
    fetched: set[tuple[int, int]] = set()
    phases: list[RebuildPhase] = []
    for f in plan.failed_disks:
        phase = RebuildPhase(f)
        for step in steps_by_disk[f]:
            for src in step.sources:
                if src[0] in plan.failed_disks or src in produced or src in fetched:
                    continue
                fetched.add(src)
                rows = phase.reads.setdefault(src[0], [])
                if src[1] not in rows:
                    rows.append(src[1])
                    rows.sort()
            phase.steps.append(step)
            produced.add(step.target)
        phases.append(phase)
    return phases


class CompiledSteps:
    """Ordered recovery steps as index groups over a stripe's cells.

    Every non-CODE method computes its target as the XOR of its sources:
    a COPY is the XOR of its one source, XOR and RECOMPUTE are what they
    say.  Consecutive steps with the same number of sources form one
    group unless a step reads or rewrites a target of an earlier step of
    that group.  A group gathers all its sources before it stores any
    target, so groups applied in order leave the bytes the steps applied
    one by one leave.  A CODE step is a group of its own (``None``): one
    decode of the stripe restores every failed column.

    Groups are kept over logical disks and placed per rotation shift
    (:meth:`at`), the shift of
    :meth:`~repro.core.stack.RotatedStack.shift`.
    """

    __slots__ = ("steps", "failed_disks", "n_disks", "_groups", "_placed")

    def __init__(self, steps, failed_disks, n_disks: int) -> None:
        #: the logical steps, in plan order
        self.steps: tuple[RecoveryStep, ...] = tuple(steps)
        #: the plan's failed logical disks (the key of a CODE decode)
        self.failed_disks: tuple[int, ...] = tuple(failed_disks)
        self.n_disks = n_disks
        groups: list = []  # (k, targets, sources) or None
        targets: set | None = None  # the open group's targets
        for step in self.steps:
            if step.method is RecoveryMethod.CODE:
                groups.append(None)
                targets = None
                continue
            k = len(step.sources)
            if (
                targets is None
                or groups[-1][0] != k
                or step.target in targets
                or not targets.isdisjoint(step.sources)
            ):
                targets = set()
                groups.append((k, [], []))
            groups[-1][1].append(step.target)
            groups[-1][2].extend(step.sources)
            targets.add(step.target)
        # targets then sources in one list: one array build places a group
        self._groups = [None if g is None else (g[0], g[1] + g[2]) for g in groups]
        self._placed: dict[tuple[int, int], tuple] = {}

    def at(self, shift: int, stride: int) -> tuple:
        """The groups placed at a rotation shift, as flat cell indices.

        Logical ``(d, r)`` becomes ``((d + shift) % n_disks) * stride +
        r``: an index into a store viewed as ``(disks * stride, ...)``,
        relative to the stripe's first slot.  Each group is ``(k,
        targets, sources)`` of ``intp`` arrays — targets of shape
        ``(g,)``, sources ``(g,)`` when ``k == 1`` and ``(g, k)``
        otherwise; CODE groups are ``None``.  Memoised (shared, treat as
        immutable).
        """
        key = (shift, stride)
        placed = self._placed.get(key)
        if placed is not None:
            return placed
        n_disks = self.n_disks
        out = []
        for group in self._groups:
            if group is None:
                out.append(None)
                continue
            k, cells = group
            flat = np.array(
                [(d + shift) % n_disks * stride + r for d, r in cells], dtype=np.intp
            )
            g = len(cells) // (k + 1)
            sources = flat[g:] if k == 1 else flat[g:].reshape(g, k)
            out.append((k, flat[:g], sources))
        placed = self._placed[key] = tuple(out)
        return placed


class CompiledPhase:
    """One rebuild phase compiled for every stripe of its failure class.

    A phase depends only on the stripe's logical failure set, and its
    placement only on the stripe's rotation shift and first slot, so
    what the rebuild derived per stripe is derived here once:

    * ``reads``/``read_set``/``n_reads`` — the phase's logical source
      cells, in the phase's order;
    * :meth:`runs_at` — those reads coalesced into runs of consecutive
      rows on one disk, relative to the stripe's first slot, in the
      ``(physical disk, start)`` order the array's coalescer emits;
    * ``steps`` — the recovery steps as :class:`CompiledSteps`.
    """

    __slots__ = (
        "phase",
        "failed_disk",
        "n_reads",
        "steps",
        "n_disks",
        "_runs",
        "_runs_at",
        "_read_set",
    )

    def __init__(self, phase: RebuildPhase, failed_disks, n_disks: int) -> None:
        #: the phase this was compiled from (the LSE fallback re-plans it)
        self.phase = phase
        self.failed_disk = phase.failed_disk
        self.steps = CompiledSteps(phase.steps, failed_disks, n_disks)
        self.n_disks = n_disks
        # a phase's rows per disk ascend without repeats (see
        # split_into_phases): a disk's rows are one run unless gapped
        runs = []
        n_reads = 0
        for disk, rows in phase.reads.items():
            n_reads += len(rows)
            if rows[-1] - rows[0] + 1 == len(rows):
                runs.append((disk, rows[0], rows[-1] + 1))
                continue
            start = prev = rows[0]
            for row in rows[1:]:
                if row != prev + 1:
                    runs.append((disk, start, prev + 1))
                    start = row
                prev = row
            runs.append((disk, start, prev + 1))
        self.n_reads = n_reads
        self._runs = runs
        self._runs_at: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._read_set: frozenset[tuple[int, int]] | None = None

    @property
    def reads(self) -> list[tuple[int, int]]:
        """The phase's logical source cells, in the phase's order."""
        return [(disk, row) for disk, rows in self.phase.reads.items() for row in rows]

    @property
    def read_set(self) -> frozenset[tuple[int, int]]:
        """:attr:`reads` as a set (built on first use: only the fallback needs it)."""
        if self._read_set is None:
            self._read_set = frozenset(self.reads)
        return self._read_set

    def runs_at(self, shift: int) -> tuple[tuple[int, int, int], ...]:
        """``(physical disk, start row, end row)`` runs at a rotation shift.

        Rows are relative to the stripe's first slot and ``end`` is
        exclusive; the runs ascend by disk, then start — the order the
        array's coalescer submits them in.  Memoised per shift.
        """
        runs = self._runs_at.get(shift)
        if runs is None:
            n_disks = self.n_disks
            runs = self._runs_at[shift] = tuple(
                sorted(((d + shift) % n_disks, lo, hi) for d, lo, hi in self._runs)
            )
        return runs


def compile_phases(phases: list[RebuildPhase], n_disks: int) -> tuple[CompiledPhase, ...]:
    """Compile a plan's phases (see :class:`CompiledPhase`)."""
    failed = tuple(ph.failed_disk for ph in phases)
    return tuple(CompiledPhase(ph, failed, n_disks) for ph in phases)
