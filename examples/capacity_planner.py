#!/usr/bin/env python3
"""Capacity planning: availability vs storage across architectures.

The paper frames its design as "balancing storage for data availability,
reconstruction efficiency, write efficiency, and other positive
features" (§VI-D).  This example builds that decision table for an
operator choosing an architecture at a given scale: storage efficiency,
fault tolerance, small/large write cost, reconstruction read accesses,
and simulated rebuild throughput — for every architecture in the
library, including the three-mirror extension of §VIII.

Run::

    python examples/capacity_planner.py [n]
"""

from __future__ import annotations

import sys

from repro.codes.evenodd import is_prime
from repro.core import (
    PermutationArrangement,
    RAID5Layout,
    RAID6Layout,
    ShiftedArrangement,
    ThreeMirrorLayout,
    XCodeLayout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.core.analysis import cost
from repro.raidsim import RaidController


def reverse_shift(n: int) -> PermutationArrangement:
    return PermutationArrangement(
        n, {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
    )


def architectures(n: int):
    yield traditional_mirror(n)
    yield shifted_mirror(n)
    yield traditional_mirror_parity(n)
    yield shifted_mirror_parity(n)
    yield ThreeMirrorLayout(n)
    yield ThreeMirrorLayout(n, ShiftedArrangement(n), reverse_shift(n))
    yield RAID5Layout(n)
    yield RAID6Layout(n, "rdp")
    if is_prime(n) and n >= 5:
        yield XCodeLayout(n)  # vertical RAID 6: prime widths only


def plan_metrics(layout):
    # worst case over single failures, counting only the reads that
    # recover data (a failed parity disk makes no user data unavailable)
    costs = [cost(layout, [f]) for f in range(layout.n_disks)]
    worst_rebuild = max(c.data_recovery_read_accesses for c in costs)
    return worst_rebuild, costs[0].small_write_elements, costs[0].large_write_accesses


def simulated_recovery_mbps(layout) -> float:
    """Recovered data per second — the paper's availability metric.

    Raw read MB/s flatters RAID 5/6, which read the whole stripe to
    recover one column; dividing by data actually recovered makes the
    architectures comparable.
    """
    controller = RaidController(layout, n_stripes=10, payload_bytes=8)
    return controller.rebuild([0]).recovered_throughput_mbps


def main(n: int) -> None:
    print(f"Architecture comparison at n={n} data disks (4 MB elements):\n")
    header = (
        f"{'architecture':<24}{'disks':>6}{'eff.':>7}{'ft':>4}"
        f"{'rd acc.':>9}{'sm wr':>7}{'lg wr':>7}{'recovery MB/s':>15}"
    )
    print(header)
    print("-" * len(header))
    for layout in architectures(n):
        rebuild_acc, small_write, large_write = plan_metrics(layout)
        mbps = simulated_recovery_mbps(layout)
        print(
            f"{layout.name:<24}{layout.n_disks:>6}"
            f"{layout.storage_efficiency():>7.2f}{layout.fault_tolerance:>4}"
            f"{rebuild_acc:>9}{float(small_write):>7.1f}{large_write:>7}{mbps:>15.1f}"
        )
    print(
        "\nReading the table: the shifted variants keep their family's storage\n"
        "efficiency and write costs but collapse worst-case reconstruction\n"
        "accesses to 1-2, which the simulated rebuild throughput mirrors.\n"
        "RAID 5/6 pay full-stripe reads on every reconstruction — the paper's\n"
        "§II criticism — despite their superior storage efficiency."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
