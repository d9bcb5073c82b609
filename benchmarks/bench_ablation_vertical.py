"""Ablation: horizontal vs vertical RAID 6 update cost (§II-C2).

The paper's §II-C2 faults horizontal RAID 6 for not being
update-optimal.  This bench measures it across the three implemented
RAID 6 codes at prime width p = 5 (where all three exist):

* elements written per single-element update — X-Code hits the
  theoretical 3, RDP averages above it (P-cascade diagonal), EVENODD
  worse still (adjuster rewrites every Q);
* simulated throughput of a small-write-only workload follows the same
  ordering.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.core.analysis import cost
from repro.core.layouts import RAID6Layout, XCodeLayout
from repro.raidsim.controller import RaidController
from repro.workloads.generator import WriteOp

P = 5


def _layouts():
    return {
        "evenodd": RAID6Layout(P, "evenodd"),
        "rdp": RAID6Layout(P - 1, "rdp"),  # rdp fits p-1 data columns at p=5
        "xcode": XCodeLayout(P),
    }


def test_bench_update_cost_ordering(benchmark):
    def sweep():
        return {
            name: float(cost(lay, ()).small_write_elements)
            for name, lay in _layouts().items()
        }

    res = run_once(benchmark, sweep)
    assert res["xcode"] == 3.0  # the optimum
    assert res["rdp"] > 3.0
    assert res["evenodd"] > res["rdp"]  # the adjuster cascade dominates
    benchmark.extra_info["avg_elements_per_update"] = res


def test_bench_small_write_throughput_ordering(benchmark):
    """The plan difference shows up as simulated small-write throughput."""

    def measure(lay, data_rows):
        ctrl = RaidController(lay, n_stripes=6, payload_bytes=8)
        rng = np.random.default_rng(2)
        ops = [
            WriteOp(
                int(rng.integers(0, 6)),
                ((int(rng.integers(0, lay.n)), int(rng.integers(0, data_rows))),),
            )
            for _ in range(60)
        ]
        return ctrl.run_write_workload(ops, window=1, rng=rng).write_throughput_mbps

    def sweep():
        lays = _layouts()
        return {
            "evenodd": measure(lays["evenodd"], lays["evenodd"].rows),
            "rdp": measure(lays["rdp"], lays["rdp"].rows),
            "xcode": measure(lays["xcode"], lays["xcode"].data_rows),
        }

    res = run_once(benchmark, sweep)
    assert res["xcode"] >= res["rdp"] * 0.95
    assert res["rdp"] >= res["evenodd"] * 0.95
    benchmark.extra_info["small_write_mbps"] = res
