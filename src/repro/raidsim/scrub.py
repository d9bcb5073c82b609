"""Disk scrubbing: find and repair latent sector errors before they bite.

The paper's §I cites the latent-sector-error studies [3-6] that
motivated two-fault tolerance; the standard operational complement is
*scrubbing* — periodically reading every sector so an LSE is found
while redundancy still exists, and rewriting it from a replica or the
parity path (the rewrite reallocates the sector and heals it).

:class:`Scrubber` sweeps every disk of a controller's array
sequentially (the cheap, streaming pattern), identifies unreadable
elements, and repairs each from the cheapest readable source set that
:meth:`~repro.core.layouts.Layout.read_sources` names:

1. a copy (mirror family) — one extra read;
2. the row-parity path — a row read;
3. a whole-stripe decode (RAID 6, X-Code) — every column free of
   latent errors;
4. nothing available → the element is reported unrepairable (and a
   subsequent disk failure would lose it: exactly the §I scenario).

A scrub before rebuild turns the mirror method's LSE data-loss case
into a non-event — measured in ``benchmarks/bench_ablation_scrub.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..disksim.request import IOKind
from .controller import RaidController

__all__ = ["ScrubReport", "Scrubber"]

_MB = 1024 * 1024


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one full scrub pass."""

    elements_scanned: int
    errors_found: int
    errors_repaired: int
    unrepairable: tuple[tuple[int, int], ...]
    makespan_s: float
    scan_throughput_mbps: float

    @property
    def clean(self) -> bool:
        return self.errors_found == 0

    @property
    def fully_repaired(self) -> bool:
        return not self.unrepairable


@dataclass
class _Repair:
    cell: tuple[int, int]  # physical (disk, slot)
    source_cells: list[tuple[int, int]] = field(default_factory=list)  # physical


class Scrubber:
    """Full-array scrub over a :class:`RaidController`'s disks."""

    def __init__(self, controller: RaidController) -> None:
        if controller.lse is None:
            raise ValueError(
                "scrubbing needs the controller's LSE model (pass lse= to "
                "RaidController) — with no fault model there is nothing to find"
            )
        self.controller = controller

    # ------------------------------------------------------------------
    def run(self, repair: bool = True) -> ScrubReport:
        """One full pass: sweep every disk, then repair what was found."""
        ctrl = self.controller
        lse = ctrl.lse
        n_disks = ctrl.layout.n_disks
        slots = ctrl.n_stripes * ctrl.layout.rows
        start = ctrl.array.now

        # 1) the scan: one streaming read over each disk, all in parallel
        for disk in range(n_disks):
            ctrl.array.submit(
                ctrl.array.element_request(disk, 0, IOKind.READ, n_elements=slots, tag="scrub")
            )
        ctrl.array.run()
        scanned = n_disks * slots

        # 2) classify the damage (the scan surfaces every bad element):
        #    each is sourced with its stripe's bad cells unreadable
        found = [
            (disk, slot) for disk, slot in sorted(lse.bad_cells()) if disk < n_disks
        ]
        located = []
        unreadable: dict[int, set[tuple[int, int]]] = {}  # stripe -> logical cells
        for disk, slot in found:
            stripe, row = divmod(slot, ctrl.layout.rows)
            logical = (ctrl.stack.logical_disk(stripe, disk), row)
            unreadable.setdefault(stripe, set()).add(logical)
            located.append((stripe, logical))
        repairs: list[_Repair] = []
        unrepairable: list[tuple[int, int]] = []
        for cell, (stripe, logical) in zip(found, located):
            step = ctrl.layout.read_sources(logical, unreadable[stripe])
            if step is None:
                unrepairable.append(cell)
            else:
                repairs.append(_Repair(cell, [ctrl.place(stripe, s) for s in step.sources]))

        # 3) repair: read the sources, rewrite the bad element (the write
        #    reallocates the sector, healing it in the fault model)
        if repair:
            for rep in repairs:
                ctrl.array.submit_elements(rep.source_cells, IOKind.READ, tag="scrub-read")
                ctrl.array.submit_elements([rep.cell], IOKind.WRITE, tag="scrub-repair")
            ctrl.array.run()

        makespan = ctrl.array.now - start
        scan_bytes = scanned * ctrl.array.element_size
        return ScrubReport(
            elements_scanned=scanned,
            errors_found=len(found),
            errors_repaired=len(repairs) if repair else 0,
            unrepairable=tuple(unrepairable),
            makespan_s=makespan,
            scan_throughput_mbps=(scan_bytes / _MB / makespan) if makespan > 0 else 0.0,
        )
