"""Data-availability measurement: the Fig. 9 experiment drivers (§VII-A).

"We enumerated all the disks ... to be the virtual failed disk ...
tried to reconstruct the failed disk and recorded the read throughput
during this reconstruction process.  Finally, we averaged these
values."  These functions do exactly that against the simulator:
every failure case gets a fresh array (parked heads, fresh content),
its rebuild is timed, and the read throughputs are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from ..core.layouts import Layout
from ..disksim.array import DEFAULT_ELEMENT_SIZE
from ..disksim.disk import DiskParameters
from .controller import RaidController, RebuildResult

__all__ = [
    "AvailabilityPoint",
    "measure_case",
    "average_reconstruction_throughput",
]


@dataclass(frozen=True)
class AvailabilityPoint:
    """Averaged reconstruction read throughput for one architecture size."""

    layout_name: str
    n: int
    n_cases: int
    mean_read_throughput_mbps: float
    min_read_throughput_mbps: float
    max_read_throughput_mbps: float
    all_verified: bool


def measure_case(
    layout: Layout,
    failed,
    n_stripes: int = 24,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    params: DiskParameters | None = None,
    window: int = 8,
    payload_bytes: int = 16,
) -> RebuildResult:
    """Time the reconstruction of one failure case on a fresh array."""
    controller = RaidController(
        layout,
        n_stripes=n_stripes,
        element_size=element_size,
        params=params,
        payload_bytes=payload_bytes,
    )
    return controller.rebuild(failed, window=window)


def average_reconstruction_throughput(
    layout_factory: Callable[[], Layout],
    n_failed: int = 1,
    n_stripes: int = 24,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    params: DiskParameters | None = None,
    window: int = 8,
    payload_bytes: int = 16,
) -> AvailabilityPoint:
    """Average rebuild read throughput over *all* failure combinations.

    ``n_failed = 1`` reproduces Fig. 9(a) (every disk in turn),
    ``n_failed = 2`` Fig. 9(b) (every pair — 105 cases at n = 7).
    Unrecoverable combinations (none exist within the architectures'
    tolerance) would raise, as they should.
    """
    layout = layout_factory()
    cases = list(combinations(range(layout.n_disks), n_failed))
    # one layout for every case (its encode index is built once); each
    # case still gets a fresh controller and array
    results: list[RebuildResult] = []
    for failed in cases:
        results.append(
            measure_case(
                layout,
                failed,
                n_stripes=n_stripes,
                element_size=element_size,
                params=params,
                window=window,
                payload_bytes=payload_bytes,
            )
        )
    throughputs = [r.read_throughput_mbps for r in results]
    return AvailabilityPoint(
        layout_name=layout.name,
        n=layout.n,
        n_cases=len(cases),
        mean_read_throughput_mbps=sum(throughputs) / len(throughputs),
        min_read_throughput_mbps=min(throughputs),
        max_read_throughput_mbps=max(throughputs),
        all_verified=all(r.verified for r in results),
    )

