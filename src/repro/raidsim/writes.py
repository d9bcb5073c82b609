"""Write-performance measurement: the Fig. 10 experiment driver (§VII-B).

"We created a workload of one thousand random large write operations of
the size varying from one element to as large as a whole stripe" and
compared the traditional and shifted methods under the same workload.
The driver here feeds that workload through a fresh controller and
reports user-data write throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.layouts import Layout
from ..disksim.array import DEFAULT_ELEMENT_SIZE
from ..disksim.disk import DiskParameters
from ..workloads.generator import random_large_writes
from .controller import RaidController, WriteResult

__all__ = ["WritePoint", "measure_write_throughput"]


@dataclass(frozen=True)
class WritePoint:
    """Write throughput for one architecture size under the Fig. 10 workload."""

    layout_name: str
    n: int
    n_ops: int
    write_throughput_mbps: float
    redundancy_intact: bool


def measure_write_throughput(
    layout: Layout,
    n_ops: int = 1000,
    n_stripes: int = 16,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    params: DiskParameters | None = None,
    strategy: str = "rmw",
    window: int = 4,
    seed: int = 42,
    payload_bytes: int = 16,
    verify: bool = True,
) -> WritePoint:
    """Run the random-large-write workload against a fresh array.

    The same seed produces the identical op sequence for every layout,
    "to ensure the fairness of our experiments".
    """
    controller = RaidController(
        layout,
        n_stripes=n_stripes,
        element_size=element_size,
        params=params,
        payload_bytes=payload_bytes,
    )
    rng = np.random.default_rng(seed)
    ops = random_large_writes(
        layout.n, n_stripes, n_ops=n_ops, rng=rng, rows=layout.data_rows
    )
    result: WriteResult = controller.run_write_workload(
        ops, strategy=strategy, window=window, rng=rng
    )
    intact = controller.verify_redundancy() if verify else True
    return WritePoint(
        layout_name=layout.name,
        n=layout.n,
        n_ops=n_ops,
        write_throughput_mbps=result.write_throughput_mbps,
        redundancy_intact=intact,
    )

