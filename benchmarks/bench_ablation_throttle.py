"""Ablation: rebuild throttling x arrangement (the orthogonality claim).

§VI-B: "Different reconstruction strategies and optimizations [10, 11]
may ... trade off between data availability and reconstruction
efficiency; our shifted element arrangement can be implemented
orthogonally with them."  We sweep a rebuild-rate throttle (the md
``speed_limit`` analogue) under live user reads and check:

* throttling trades rebuild time for user latency under *both*
  arrangements (the knob works);
* at every throttle point the shifted arrangement keeps a lower user
  latency than the traditional one — the gains compose.
"""

from __future__ import annotations

from conftest import run_once

from repro.core.layouts import shifted_mirror, traditional_mirror
from repro.disksim.scheduler import PriorityScheduler
from repro.raidsim.controller import RaidController
from repro.raidsim.reconstruction import OnlineReconstruction
from repro.workloads.generator import user_read_stream
from repro.workloads.openloop import FixedThrottle

N = 5
STRIPES = 20
THROTTLES = (0.0, 0.05, 0.2)


def _measure(builder, throttle):
    ctrl = RaidController(
        builder(N),
        n_stripes=STRIPES,
        payload_bytes=8,
        scheduler_factory=PriorityScheduler,
    )
    reads = user_read_stream(N, STRIPES, duration_s=2.0, rate_per_s=10, target_disk=0)
    res = OnlineReconstruction(ctrl, [0], reads, throttle=FixedThrottle(throttle)).run()
    assert res.rebuild.verified
    return res.mean_user_latency_s, res.rebuild.makespan_s


def test_bench_throttle_tradeoff_and_orthogonality(benchmark):
    def sweep():
        return {
            (name, t): _measure(builder, t)
            for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror))
            for t in THROTTLES
        }

    res = run_once(benchmark, sweep)
    for name in ("trad", "shift"):
        lat = [res[(name, t)][0] for t in THROTTLES]
        mk = [res[(name, t)][1] for t in THROTTLES]
        # the knob works: stronger throttle -> slower rebuild, better latency
        assert mk[-1] > mk[0], name
        assert lat[-1] < lat[0], name
    # orthogonality: shifted wins at every throttle point
    for t in THROTTLES:
        assert res[("shift", t)][0] < res[("trad", t)][0], t
    benchmark.extra_info["latency_ms_and_makespan_s"] = {
        f"{name}@{t}": (lat * 1e3, mk) for (name, t), (lat, mk) in res.items()
    }
