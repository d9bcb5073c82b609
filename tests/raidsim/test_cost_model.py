"""The cost model predicts what a simulated rebuild reads.

:func:`repro.core.analysis.cost` counts a stripe's rebuild reads from
the layout's plan.  On an unrotated stack every stripe repeats that
plan, so a clean rebuild of ``n_stripes`` stripes must read exactly
``n_stripes`` times ``cost``'s reads from each disk: checked for every
leaderboard layout and every failure set within its tolerance.  Two
figures from the related work are checked on ``cost`` itself: the
declustered mirror's uniform survivor load (Dau et al., the t-design
placement) and rebuild-optimal RDP's minimum read count (Wang, Tamo
and Bruck).
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analysis import cost
from repro.core.registry import build_layout, leaderboard_layouts
from repro.disksim.request import IOKind
from repro.raidsim.controller import RaidController


def _rebuild_reads(layout, failed, n_stripes: int) -> tuple[int, ...]:
    """Elements each disk gives a clean, unrotated rebuild of ``failed``."""
    ctrl = RaidController(layout, n_stripes=n_stripes, payload_bytes=8, rotate=False)
    result = ctrl.rebuild(failed)
    assert result.verified
    per_disk = [0] * layout.n_disks
    element = ctrl.array.element_size
    for req in ctrl.array.sim.completed:
        if req.tag == "rebuild" and req.kind is IOKind.READ:
            per_disk[req.disk] += req.size // element
    return tuple(per_disk)


@st.composite
def _cases(draw):
    n = draw(st.integers(3, 6))
    layout = build_layout(draw(st.sampled_from(leaderboard_layouts(n))), n)
    k = draw(st.integers(1, layout.fault_tolerance))
    failed = draw(st.sampled_from(list(combinations(range(layout.n_disks), k))))
    return layout, failed, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_rebuild_reads_per_disk_equal_cost(case):
    layout, failed, n_stripes = case
    predicted = cost(layout, failed).reads_per_disk
    assert _rebuild_reads(layout, failed, n_stripes) == tuple(
        n_stripes * r for r in predicted
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_declustered_mirror_loads_every_survivor_equally(n):
    layout = build_layout("declustered-mirror", n)
    for f in range(layout.n_disks):
        c = cost(layout, [f])
        assert c.read_accesses / c.mean_survivor_reads == 1
        assert c.survivor_read_spread == 0


@pytest.mark.parametrize("n,optimal,row_only", [(4, 12, 16), (5, 22, 30), (6, 27, 36)])
def test_rebuild_optimal_rdp_reads_the_minimum(n, optimal, row_only):
    assert cost(build_layout("rebuild-optimal-rdp", n), [0]).elements_read == optimal
    assert cost(build_layout("raid6-rdp", n), [0]).elements_read == row_only
