"""Performance analysis: the layout cost model and the paper's closed forms.

:func:`cost` derives every figure of one layout under one failure set
(read accesses, survivor load, elements read, write cost, storage
efficiency) from the layout's own plans, by counting, exactly as the
paper does ("rigorous counting and averaging on a simple stripe"
[14]).  The closed forms below are the paper's stated results: Table
I, the 4n/(2n+1) average and the Fig. 7 curves, which run to n = 50
where enumerating the plans would cost thousands of plans per point.
The test suite checks each against :func:`cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..codes.evenodd import smallest_prime_at_least
from .reconstruction import ReconstructionPlan

__all__ = [
    "LayoutCost",
    "cost",
    "Table1Row",
    "table1",
    "avg_read_accesses_shifted_parity",
    "avg_read_accesses_traditional_parity",
    "avg_read_accesses_raid6",
    "fig7_ratio_vs_traditional",
    "fig7_ratio_vs_raid6",
    "fig7_series",
]


# ======================================================================
# The cost model
# ======================================================================


@dataclass(frozen=True)
class LayoutCost:
    """What one stripe of a layout costs under one failure set."""

    #: parallel read accesses to rebuild the stripe: the most elements
    #: read from one disk (§III), so also the largest ``reads_per_disk``
    read_accesses: int
    #: Table I's ``Num_Read``: the same count over the steps that
    #: recover data and replica cells, leaving out those that rebuild
    #: parity, which is bookkeeping rather than data availability
    data_recovery_read_accesses: int
    #: elements each disk gives the rebuild, by disk (0 on a failed disk)
    reads_per_disk: tuple[int, ...]
    #: mean of ``reads_per_disk`` over the surviving disks
    mean_survivor_reads: Fraction
    #: most minus fewest elements read from one surviving disk
    survivor_read_spread: int
    #: elements read in all
    elements_read: int
    #: elements written by a single-element write, averaged over every
    #: data element (§VI-C)
    small_write_elements: Fraction
    #: write accesses of a full-row write, the worst over the data rows
    large_write_accesses: int
    #: data cells over all cells (§VI-D)
    storage_efficiency: Fraction
    #: simultaneous disk failures the layout survives
    fault_tolerance: int


def _failure_free_figures(layout) -> tuple[Fraction, int, Fraction]:
    """The small-write, large-write and storage figures, planned once per
    layout: they do not depend on the failure set, and the writes are
    most of the work."""
    memo = layout._cost_memo
    if "failure_free" not in memo:
        data = [(i, j) for j in range(layout.data_rows) for i in range(layout.n)]
        written = sum(layout.write_plan([cell]).total_elements_written for cell in data)
        kinds = [
            layout.content(d, r).kind
            for d in range(layout.n_disks)
            for r in range(layout.rows)
        ]
        memo["failure_free"] = (
            Fraction(written, len(data)),
            max(
                layout.large_write_plan(j).num_write_accesses
                for j in range(layout.data_rows)
            ),
            Fraction(kinds.count("data"), len(kinds)),
        )
    return memo["failure_free"]


def cost(layout, failed) -> LayoutCost:
    """Every cost figure of ``layout`` with the disks ``failed``.

    Derived only from the layout's ``reconstruction_plan(failed)``,
    ``write_plan``, ``large_write_plan`` and ``content``; the write and
    storage figures do not depend on ``failed``.
    """
    small_write, large_write, efficiency = _failure_free_figures(layout)
    plan = layout.reconstruction_plan(failed)
    data_plan = ReconstructionPlan(plan.failed_disks)
    for step in plan.steps:
        if layout.content(*step.target).kind not in ("parity", "q_parity"):
            data_plan.add_step(step.target, step.method, step.sources)
    reads = plan.reads_per_disk()
    per_disk = tuple(reads.get(d, 0) for d in range(layout.n_disks))
    survivors = [r for d, r in enumerate(per_disk) if d not in plan.failed_disks]
    return LayoutCost(
        read_accesses=plan.num_read_accesses,
        data_recovery_read_accesses=data_plan.num_read_accesses,
        reads_per_disk=per_disk,
        mean_survivor_reads=Fraction(sum(survivors), len(survivors)),
        survivor_read_spread=max(survivors) - min(survivors),
        elements_read=plan.total_elements_read,
        small_write_elements=small_write,
        large_write_accesses=large_write,
        storage_efficiency=efficiency,
        fault_tolerance=layout.fault_tolerance,
    )


# ======================================================================
# Table I — double-failure cases of the shifted mirror method w/ parity
# ======================================================================


@dataclass(frozen=True)
class Table1Row:
    """One failure situation ``F_i`` of Table I."""

    situation: str
    description: str
    num_cases: int
    num_read_accesses: int


def table1(n: int) -> list[Table1Row]:
    """Table I for ``n`` data disks.

    F1: the two failed disks include the parity disk  — 2n cases, 1 access.
    F2: both failed disks in the same disk array      — n(n-1) cases, 2.
    F3: one failed disk in each disk array            — n^2 cases, 2.
    """
    if n < 2:
        raise ValueError(f"Table I needs n >= 2, got {n}")
    return [
        Table1Row(
            "F1",
            "The two failed disks include the parity disk",
            2 * n,
            1,
        ),
        Table1Row(
            "F2",
            "The two failed disks are in the same disk array",
            n * (n - 1),
            2,
        ),
        Table1Row(
            "F3",
            "Each disk array contains one failed disk",
            n * n,
            2,
        ),
    ]


def avg_read_accesses_shifted_parity(n: int) -> Fraction:
    """Expectation of Table I: ``4n / (2n + 1)`` (paper §VI-A)."""
    rows = table1(n)
    total_cases = sum(r.num_cases for r in rows)
    weighted = sum(r.num_cases * r.num_read_accesses for r in rows)
    result = Fraction(weighted, total_cases)
    assert result == Fraction(4 * n, 2 * n + 1)
    return result


def avg_read_accesses_traditional_parity(n: int) -> Fraction:
    """Every double-failure case of the traditional arrangement costs
    ``n`` accesses (a full column read from a single disk), so the
    average is ``n``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Fraction(n)


def avg_read_accesses_raid6(n: int, code: str = "rdp") -> Fraction:
    """RAID 6 double-failure read accesses under the "shorten" method.

    Every reconstruction reads all intact elements; with each surviving
    disk holding ``p - 1`` elements, that is ``p - 1`` accesses, where
    ``p`` is the smallest prime admitting ``n`` data columns
    (``p >= n`` for EVENODD, ``p >= n + 1`` for RDP).  The shortening
    gap ``p - 1 >= n`` (RDP) is exactly why the paper's Fig. 7 shows
    the RAID 6 curve slightly below the traditional mirror-with-parity
    curve.
    """
    if code == "evenodd":
        p = smallest_prime_at_least(max(n, 3))
    elif code == "rdp":
        p = smallest_prime_at_least(max(n + 1, 3))
    else:
        raise ValueError(f"unknown RAID 6 code {code!r}")
    return Fraction(p - 1)


# ======================================================================
# Fig. 7 — relative read accesses during reconstruction
# ======================================================================


def fig7_ratio_vs_traditional(n: int) -> float:
    """Shifted-with-parity accesses over traditional-with-parity, in percent."""
    ratio = avg_read_accesses_shifted_parity(n) / avg_read_accesses_traditional_parity(n)
    return float(ratio) * 100.0


def fig7_ratio_vs_raid6(n: int, code: str = "rdp") -> float:
    """Shifted-with-parity accesses over RAID 6, in percent."""
    ratio = avg_read_accesses_shifted_parity(n) / avg_read_accesses_raid6(n, code)
    return float(ratio) * 100.0


def fig7_series(n_min: int = 2, n_max: int = 50, code: str = "rdp") -> dict[str, list[float]]:
    """The two Fig. 7 curves over a range of data-disk counts."""
    ns = list(range(n_min, n_max + 1))
    return {
        "n": [float(n) for n in ns],
        "vs_traditional_percent": [fig7_ratio_vs_traditional(n) for n in ns],
        "vs_raid6_percent": [fig7_ratio_vs_raid6(n, code) for n in ns],
    }


