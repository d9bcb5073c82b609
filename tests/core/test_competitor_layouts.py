"""Spread invariants of the competitor layouts (ISSUE 10).

The declustered mirror must load every survivor *equally* during a
rebuild (the t-design promise); the rebuild-optimal RDP must read
exactly the analytic minimum of elements for a single data-disk
rebuild (the Wang/Tamo/Bruck promise); the group-rotated arrangement
must sit between traditional and shifted on replica spread.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.arrangement import GroupRotatedArrangement
from repro.core.layouts import (
    DeclusteredMirrorLayout,
    MirrorLayout,
    RAID6Layout,
    RebuildOptimalRDPLayout,
)
from repro.core.properties import property_report
from repro.raidsim.controller import RaidController


# ----------------------------------------------------------------------
# declustered mirror: uniform rebuild load on every survivor
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_declustered_every_survivor_contributes_equally(n):
    lay = DeclusteredMirrorLayout(n)
    for failed in range(lay.n_disks):
        loads = lay.reconstruction_plan([failed]).reads_per_disk()
        assert failed not in loads
        survivors = set(range(lay.n_disks)) - {failed}
        assert set(loads) == survivors
        assert set(loads.values()) == {1}, (failed, loads)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_declustered_rebuild_is_one_parallel_access(n):
    """Uniform load of 1 means the whole rebuild is one access round."""
    lay = DeclusteredMirrorLayout(n)
    for failed in range(lay.n_disks):
        plan = lay.reconstruction_plan([failed])
        assert plan.num_read_accesses == 1
        assert plan.total_elements_read == lay.rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_declustered_every_disk_pair_meets_exactly_once(n):
    """The 1-factorization property behind the uniform load: over the
    stripe's rows, each pair of distinct disks shares exactly one
    mirrored element."""
    lay = DeclusteredMirrorLayout(n)
    met: dict[frozenset, int] = {}
    for i in range(lay.n):
        for j in range(lay.rows):
            primary, _ = lay.data_cell(i, j)
            ((replica, _),) = lay.replica_cells(i, j)
            pair = frozenset((primary, replica))
            met[pair] = met.get(pair, 0) + 1
    all_pairs = {
        frozenset((a, b))
        for a in range(lay.n_disks)
        for b in range(a + 1, lay.n_disks)
    }
    assert set(met) == all_pairs
    assert set(met.values()) == {1}


def test_declustered_controller_rebuild_bit_verified():
    lay = DeclusteredMirrorLayout(4)
    for failed in range(lay.n_disks):
        ctrl = RaidController(lay, n_stripes=2, payload_bytes=16, tracer=False)
        assert ctrl.rebuild([failed]).verified


def test_declustered_single_element_write_touches_two_disks():
    lay = DeclusteredMirrorLayout(3)
    plan = lay.write_plan([(1, 2)])
    assert len(plan.writes) == 2  # primary disk + partner disk
    assert plan.num_write_accesses == 1
    assert lay.storage_efficiency() == 0.5


def test_declustered_needs_two_data_disks():
    from repro.core.errors import LayoutError

    with pytest.raises(LayoutError):
        DeclusteredMirrorLayout(1)


# ----------------------------------------------------------------------
# rebuild-optimal RDP: analytic minimum element reads
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6])
def test_rebuild_optimal_matches_analytic_minimum(n):
    """Unshortened RDP (n = p-1): the hybrid row/diagonal rebuild of any
    single data disk reads exactly 3/4 of the row-only (p-1)^2 — the
    known optimum for RDP single-disk recovery."""
    lay = RebuildOptimalRDPLayout(n)
    assert lay.p == n + 1  # unshortened: the formula below applies
    row_only = (lay.p - 1) ** 2
    optimum = 3 * row_only // 4
    for failed in range(lay.n):
        assert lay.reconstruction_plan([failed]).total_elements_read == optimum


@pytest.mark.parametrize("n", [3, 4, 6])
def test_rebuild_optimal_never_worse_than_row_only(n):
    lay = RebuildOptimalRDPLayout(n)
    base = RAID6Layout(n, "rdp")
    for failed in range(lay.n):
        opt = lay.reconstruction_plan([failed]).total_elements_read
        row = base.reconstruction_plan([failed]).total_elements_read
        assert opt < row, (failed, opt, row)
    # parity disks have no diagonal alternative — identical plans
    for failed in (lay.p_disk, lay.q_disk):
        assert (
            lay.reconstruction_plan([failed]).total_elements_read
            == base.reconstruction_plan([failed]).total_elements_read
        )


def test_rebuild_optimal_minimum_confirmed_by_independent_search():
    """Brute-force every choice among each lost cell's parity equations
    independently of the planner and confirm nothing reads fewer
    elements."""
    lay = RebuildOptimalRDPLayout(4)
    failed = 0
    options = [
        [set(eq) - {(failed, t)} for eq in lay.parity_equations() if (failed, t) in eq]
        for t in range(lay.rows)
    ]
    assert [len(o) for o in options] == [2] * lay.rows  # its row and its diagonal
    best = min(len(set().union(*pick)) for pick in product(*options))
    assert best == lay.reconstruction_plan([failed]).total_elements_read


@pytest.mark.parametrize("n", [3, 4, 6])
def test_rebuild_optimal_controller_rebuild_bit_verified(n):
    lay = RebuildOptimalRDPLayout(n)
    for failed in range(lay.n_disks):
        ctrl = RaidController(lay, n_stripes=2, payload_bytes=16, tracer=False)
        assert ctrl.rebuild([failed]).verified, failed


def test_rebuild_optimal_double_failure_falls_back_to_decode():
    """Two failures exceed the hybrid search's remit; the RDP decoder
    path must still recover bit-exactly."""
    lay = RebuildOptimalRDPLayout(4)
    ctrl = RaidController(lay, n_stripes=2, payload_bytes=16, tracer=False)
    assert ctrl.rebuild([0, 3]).verified


# ----------------------------------------------------------------------
# group-rotated arrangement: the middle point
# ----------------------------------------------------------------------


def test_group_rotated_is_bijective_for_all_groups():
    for n in (2, 3, 4, 5, 6):
        for g in range(1, n + 1):
            arr = GroupRotatedArrangement(n, g)
            arr._ensure_maps()  # raises if not a bijection


def test_group_rotated_properties_middle_point():
    """g strictly between 1 and n: replicas spread over ceil(n/g) disks,
    so P1/P2 fail but P3 (row-aligned replicas) always holds."""
    rep = property_report(GroupRotatedArrangement(5, 2))
    assert rep == {"P1": False, "P2": False, "P3": True}
    # g=1 advances the mirror disk every row — full spread, P1-2 hold
    rep1 = property_report(GroupRotatedArrangement(5, 1))
    assert rep1["P1"] and rep1["P2"] and rep1["P3"]


@pytest.mark.parametrize("n,g", [(4, 2), (5, 2), (6, 3)])
def test_group_rotated_replica_spread_is_ceil_n_over_g(n, g):
    arr = GroupRotatedArrangement(n, g)
    for i in range(n):
        spread = set(arr.replica_disks_of_data_disk(i))
        assert len(spread) == -(-n // g)


def test_group_rotated_mirror_layout_rebuilds():
    lay = MirrorLayout(
        4, GroupRotatedArrangement(4, 2), name="group-rotated-mirror"
    )
    assert lay.name == "group-rotated-mirror"
    for failed in range(lay.n_disks):
        plan = lay.reconstruction_plan([failed])
        # g parallel accesses per stripe: between shifted's 1 and
        # traditional's n
        assert plan.num_read_accesses == 2
        ctrl = RaidController(lay, n_stripes=2, payload_bytes=16, tracer=False)
        assert ctrl.rebuild([failed]).verified


def test_group_rotated_rejects_bad_group():
    with pytest.raises(ValueError):
        GroupRotatedArrangement(4, 0)
