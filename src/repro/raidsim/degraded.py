"""Degraded-mode service: the array keeps working between failure and repair.

§III's premise is that "the storage system keeps on serving user
applications" after a failure.  :class:`DegradedArray` makes that mode
explicit, the way md/RAID drivers do:

* **reads** route around the failed disks via
  :func:`~repro.raidsim.reconstruction.degraded_read_sources` (replica
  first, then the parity path, as
  :meth:`~repro.core.layouts.Layout.read_sources` orders them);
* **writes** execute their plan minus the failed disks' cells; the
  skipped cells are tracked in a *dirty map* (md's write-intent bitmap);
* **resync** rebuilds the failed disks and replays the dirty map so the
  rebuilt columns reflect every write accepted while degraded.

Content-store semantics match throughout, so the byte-for-byte
verification used everywhere else still applies after a
write-while-degraded-then-resync cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.errors import UnrecoverableFailureError
from ..core.layouts import (
    DeclusteredMirrorLayout,
    MirrorLayout,
    MirrorParityLayout,
    RAID5Layout,
    ThreeMirrorLayout,
)
from ..core.writes import CompiledWrite
from ..disksim.request import IOKind
from ..workloads.generator import WriteOp
from .controller import RaidController, RebuildResult
from .reconstruction import degraded_read_sources

__all__ = ["DegradedArray", "DegradedStats"]

_MB = 1024 * 1024


@dataclass
class DegradedStats:
    """Service counters for one degraded episode."""

    reads_served: int = 0
    degraded_reads: int = 0
    writes_served: int = 0
    elements_skipped: int = 0  # writes destined for failed disks
    read_latencies_s: list[float] = field(default_factory=list)


class DegradedArray:
    """A controller operating with one or more failed disks.

    Parameters
    ----------
    controller:
        The healthy controller; failing the disks is this class's job.
    failed_disks:
        Physical disks that just died.  Their content is destroyed on
        entry (it is, after all, gone).
    """

    SUPPORTED = (
        MirrorLayout,
        MirrorParityLayout,
        ThreeMirrorLayout,
        DeclusteredMirrorLayout,
        RAID5Layout,
    )

    def __init__(self, controller: RaidController, failed_disks) -> None:
        if not isinstance(controller.layout, self.SUPPORTED):
            raise NotImplementedError(
                f"degraded-mode service is implemented for the mirror family "
                f"and RAID 5, not {controller.layout.name}"
            )
        self.controller = controller
        self.failed = tuple(sorted(set(failed_disks)))
        if len(self.failed) > controller.layout.fault_tolerance:
            raise UnrecoverableFailureError(
                f"{len(self.failed)} failures exceed tolerance "
                f"{controller.layout.fault_tolerance}"
            )
        self._lost_snapshot = {f: controller.content[f].copy() for f in self.failed}
        for f in self.failed:
            controller.content[f] = 0xEE  # the platters are gone
        #: logical cells whose on-disk (failed) copy is stale:
        #: ``stripe -> set of (disk, row)``
        self.dirty: dict[int, set[tuple[int, int]]] = {}
        self.stats = DegradedStats()
        self._resynced = False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, stripe: int, i: int, j: int) -> np.ndarray:
        """Serve one data-element read, timing it on the simulator."""
        ctrl = self.controller
        logical_failed = {
            ctrl.stack.logical_disk(stripe, f) for f in self.failed
        }
        sources = degraded_read_sources(ctrl.layout, logical_failed, i, j)
        degraded = sources != [ctrl.layout.data_cell(i, j)]
        cells = [ctrl.place(stripe, c) for c in sources]
        t0 = ctrl.array.now
        done = {}

        def on_complete() -> None:
            done["t"] = ctrl.array.now

        ctrl.array.submit_elements(
            cells, IOKind.READ, priority=0, tag="degraded-read", on_complete=on_complete
        )
        ctrl.array.run()
        self.stats.reads_served += 1
        self.stats.degraded_reads += int(degraded)
        self.stats.read_latencies_s.append(done["t"] - t0)
        return self._xor_of(stripe, sources)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, op: WriteOp, rng: np.random.Generator | None = None) -> None:
        """Accept a write while degraded.

        The plan's cells on failed disks are skipped (and marked dirty
        for resync); everything else — surviving replicas, parity —
        updates normally, so redundancy over the *surviving* disks
        stays exact.
        """
        if rng is None:
            rng = np.random.default_rng(self.stats.writes_served)
        ctrl = self.controller
        entry = ctrl.plan_cache.write_plan(op.elements)
        disks, slots = ctrl.stack.cells(op.stripe)
        logical_failed = {
            ctrl.stack.logical_disk(op.stripe, f) for f in self.failed
        }
        w_disks, w_rows = entry.writes
        lost = np.isin(w_disks, list(logical_failed))
        if lost.any():
            self.dirty.setdefault(op.stripe, set()).update(
                zip(w_disks[lost].tolist(), w_rows[lost].tolist())
            )
            self.stats.elements_skipped += int(lost.sum())
        live_cells = (w_disks[~lost], w_rows[~lost])
        r_disks, r_rows = entry.reads
        live = ~np.isin(r_disks, list(logical_failed))
        live_reads = (r_disks[live], r_rows[live])

        def do_writes() -> None:
            ctrl.array.submit_batch(
                disks[live_cells].tolist(),
                slots[live_cells].tolist(),
                IOKind.WRITE,
                tag="degraded-write",
            )

        if len(live_reads[0]):
            ctrl.array.submit_batch(
                disks[live_reads].tolist(),
                slots[live_reads].tolist(),
                IOKind.READ,
                tag="degraded-rmw",
                on_complete=do_writes,
            )
        else:
            do_writes()
        ctrl.array.run()
        self._apply_degraded_content(op.stripe, entry, rng, live_cells, logical_failed)
        self.stats.writes_served += 1

    # ------------------------------------------------------------------
    def _logical_value(
        self, stripe: int, i: int, j: int, unavailable: set[tuple[int, int]]
    ) -> np.ndarray:
        """The logical (pre-write) value of ``a[i, j]`` despite failures.

        The XOR of the sources :meth:`~repro.core.layouts.Layout.read_sources`
        names with the ``unavailable`` cells ruled out, read from the
        content store.
        """
        lay = self.controller.layout
        step = lay.read_sources(lay.data_cell(i, j), unavailable)
        if step is None:
            raise UnrecoverableFailureError(f"no surviving value for a[{i},{j}]")
        return self._xor_of(stripe, step.sources)

    def _xor_of(self, stripe: int, sources) -> np.ndarray:
        """The XOR of source cells' content (one source: a copy of it)."""
        ctrl = self.controller
        acc = ctrl.element_content(stripe, sources[0]).copy()
        for cell in sources[1:]:
            acc ^= ctrl.element_content(stripe, cell)
        return acc

    def _apply_degraded_content(
        self,
        stripe: int,
        entry: CompiledWrite,
        rng: np.random.Generator,
        live_cells: tuple[np.ndarray, np.ndarray],
        logical_failed: set[int],
    ) -> None:
        """Content-store semantics of a degraded write.

        The stripe's logical data — failed cells read through the
        degraded cascade — takes the op's payloads, drawn at once, and
        its encoding lands on the plan's surviving ``(disks, rows)``
        cells.  Cells on failed disks stay destroyed (the platters are
        gone).
        """
        ctrl = self.controller
        lay = ctrl.layout
        unavailable = {(d, r) for d in logical_failed for r in range(lay.rows)}
        data = np.array(
            [
                [self._logical_value(stripe, i, j, unavailable) for i in range(lay.n)]
                for j in range(lay.data_rows)
            ]
        )
        data[entry.data] = ctrl.film.fresh(rng, entry.n_payloads)[entry.pick]
        ctrl.store_encoded(stripe, data, live_cells)

    # ------------------------------------------------------------------
    # resync
    # ------------------------------------------------------------------
    def resync(self, window: int = 4) -> RebuildResult:
        """Rebuild the failed disks (replacement hardware arrived).

        The rebuild regenerates every element of the failed disks from
        surviving redundancy — including the elements written while
        degraded, whose surviving copies/parity are current.  The dirty
        map then clears; verification compares against pre-failure
        content *except* dirty cells, which are checked against their
        surviving redundancy instead.
        """
        ctrl = self.controller
        result = ctrl.rebuild(self.failed, window=window, verify=False)
        # verification: unwritten cells must match the pre-failure
        # snapshot; dirty cells must satisfy verify_redundancy (checked
        # globally below).
        verified = True
        for f in self.failed:
            snapshot = self._lost_snapshot[f]
            for stripe in range(ctrl.n_stripes):
                logical = ctrl.stack.logical_disk(stripe, f)
                dirty_rows = {
                    row for d, row in self.dirty.get(stripe, set()) if d == logical
                }
                for row in range(ctrl.layout.rows):
                    slot = ctrl.stack.element_offset(stripe, row)
                    if row in dirty_rows:
                        continue  # overwritten while degraded, by design
                    if not np.array_equal(ctrl.content[f, slot], snapshot[slot]):
                        verified = False
        verified = verified and ctrl.verify_redundancy()
        self.dirty.clear()
        self._resynced = True
        return replace(result, verified=verified)
