"""Memoised reconstruction plans, phases, compiled phases and read rounds.

A rebuild derives, for every stripe, a
:class:`~repro.core.reconstruction.ReconstructionPlan` from the
stripe's *logical* failure set — but the logical set is the only input:
two stripes whose rotation maps the same physical failures onto the
same logical disks get byte-identical plans.  A rotated stack has at
most ``n_disks`` distinct logical sets (exactly one without rotation),
yet the executor used to re-derive the plan and re-split it into
phases once per stripe — thousands of identical derivations in a
large array.

:class:`PlanCache` computes each equivalence class once.  Correctness
is keyed entirely on the logical failure tuple, so a *growing* failure
set (a disk dying mid-rebuild) simply lands in a new cache slot: an
entry never goes stale, and nothing is ever dropped.

Next to each class's phases the cache keeps them *compiled*
(:class:`~repro.core.reconstruction.CompiledPhase`): the read cells,
the reads coalesced into runs relative to the stripe's first slot, and
the recovery steps as index groups.  A rebuild places those by
arithmetic for every stripe of the class instead of placing cell by
cell.

The same cache memoises write plans, compiled to index arrays
(:class:`~repro.core.writes.CompiledWrite`), keyed by the written
elements and the parity strategy: a write plan depends on nothing else.

Cached objects are **shared**: callers must treat plans, phase lists,
rounds, compiled phases and compiled writes as immutable (the executor
already does — substituted recovery steps are built as fresh lists).
"""

from __future__ import annotations

from ..obs import default_registry
from .errors import UnrecoverableFailureError
from .layouts import Layout
from .reconstruction import (
    CompiledPhase,
    RebuildPhase,
    ReconstructionPlan,
    compile_phases,
    split_into_phases,
)
from .writes import CompiledWrite

__all__ = ["PlanCache"]


def _plancache_instruments(reg) -> tuple:
    """The hit and miss counters, for :meth:`MetricsRegistry.bound`."""
    return (
        reg.counter("plancache.hits", "plan lookups served from cache").labels(),
        reg.counter("plancache.misses", "plan lookups that derived a plan").labels(),
    )


class PlanCache:
    """Per-layout memo of reconstruction plans keyed by logical failures.

    Per logical failure set it holds the plan, its phases, the phases
    compiled for arithmetic placement (:meth:`compiled_phases`) and the
    read rounds.  Write plans are keyed by the written elements instead.

    Parameters
    ----------
    layout:
        The architecture whose plans are cached.  The cache must not be
        shared between layouts.
    enabled:
        ``False`` turns every lookup into a recomputation — the switch
        ``benchmarks/perfbench.py`` uses to price the cache itself.
    """

    __slots__ = (
        "layout",
        "enabled",
        "hits",
        "misses",
        "_plans",
        "_phases",
        "_compiled",
        "_rounds",
        "_unrecoverable",
        "_writes",
        "_c_hits",
        "_c_misses",
    )

    def __init__(self, layout: Layout, enabled: bool = True) -> None:
        self.layout = layout
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        # null instruments when observability is off — no extra branch
        # needed on the lookup path
        self._c_hits, self._c_misses = default_registry().bound(_plancache_instruments)
        self._plans: dict[tuple[int, ...], ReconstructionPlan] = {}
        self._phases: dict[tuple[int, ...], list[RebuildPhase]] = {}
        self._compiled: dict[tuple[int, ...], tuple[CompiledPhase, ...]] = {}
        self._rounds: dict[tuple[int, ...], list[list[tuple[int, int]]]] = {}
        #: failure sets known to be beyond the layout's tolerance,
        #: mapped to the planner's original message — counting-mode
        #: rebuilds probe these once per stripe, so negative results
        #: are cached too
        self._unrecoverable: dict[tuple[int, ...], str] = {}
        self._writes: dict[tuple[tuple, str], CompiledWrite] = {}

    # ------------------------------------------------------------------
    def plan(self, failed_logical: tuple[int, ...]) -> ReconstructionPlan:
        """The (shared, treat-as-immutable) plan for a logical failure set."""
        failed_logical = tuple(failed_logical)
        if not self.enabled:
            return self.layout.reconstruction_plan(failed_logical)
        cached = self._plans.get(failed_logical)
        if cached is not None:
            self.hits += 1
            self._c_hits.inc()
            return cached
        message = self._unrecoverable.get(failed_logical)
        if message is not None:
            self.hits += 1
            self._c_hits.inc()
            raise UnrecoverableFailureError(message)
        self.misses += 1
        self._c_misses.inc()
        try:
            plan = self.layout.reconstruction_plan(failed_logical)
        except UnrecoverableFailureError as exc:
            self._unrecoverable[failed_logical] = str(exc)
            raise
        self._plans[failed_logical] = plan
        return plan

    def phases(self, failed_logical: tuple[int, ...]) -> list[RebuildPhase]:
        """The plan's per-failed-disk phases (shared, treat-as-immutable)."""
        failed_logical = tuple(failed_logical)
        if not self.enabled:
            return split_into_phases(self.plan(failed_logical))
        cached = self._phases.get(failed_logical)
        if cached is not None:
            return cached
        phases = split_into_phases(self.plan(failed_logical))
        self._phases[failed_logical] = phases
        return phases

    def compiled_phases(
        self, failed_logical: tuple[int, ...]
    ) -> tuple[CompiledPhase, ...]:
        """The phases compiled for arithmetic placement (shared, treat-as-immutable).

        Derived from :meth:`phases` on a miss, so the plan counters see
        the same lookups an uncompiled rebuild made.
        """
        failed_logical = tuple(failed_logical)
        cached = self._compiled.get(failed_logical)
        if cached is not None:
            return cached
        compiled = compile_phases(self.phases(failed_logical), self.layout.n_disks)
        if self.enabled:
            self._compiled[failed_logical] = compiled
        return compiled

    def read_rounds(self, failed_logical: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        """The plan's parallel read rounds (shared, treat-as-immutable).

        Round ``r`` reads the ``r``-th row of every disk that has one, so
        each round touches a disk at most once and there are
        ``num_read_accesses`` rounds (§III).
        """
        failed_logical = tuple(failed_logical)
        rounds = self._rounds.get(failed_logical)
        if rounds is None:
            reads = sorted(self.plan(failed_logical).reads.items())
            depth = max((len(rows) for _, rows in reads), default=0)
            rounds = [
                [(disk, rows[r]) for disk, rows in reads if r < len(rows)]
                for r in range(depth)
            ]
            if self.enabled:
                self._rounds[failed_logical] = rounds
        return rounds

    def write_plan(self, elements, strategy: str = "rmw") -> CompiledWrite:
        """The (shared, treat-as-immutable) compiled plan of writing ``elements``.

        ``elements`` are the data elements ``(i, j)`` in the op's order;
        :meth:`~repro.core.layouts.Layout.write_plan` derives the plan
        on a miss.  Write lookups leave the reconstruction-plan
        ``hits``/``misses`` counters alone.
        """
        elements = tuple(elements)
        key = (elements, strategy)
        cached = self._writes.get(key)
        if cached is not None:
            return cached
        compiled = CompiledWrite.compile(
            self.layout.write_plan(list(elements), strategy=strategy), elements
        )
        if self.enabled:
            self._writes[key] = compiled
        return compiled

    def __len__(self) -> int:
        return len(self._plans)
