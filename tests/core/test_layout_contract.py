"""The Layout contract: invariants every architecture must satisfy.

One parametrized suite over the whole zoo — anything added to the
library later gets these checks for free by joining ``ALL_LAYOUTS``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.arrangement import (
    GroupRotatedArrangement,
    PermutationArrangement,
    ShiftedArrangement,
)
from repro.core.layouts import (
    DeclusteredMirrorLayout,
    MirrorLayout,
    RAID5Layout,
    RAID6Layout,
    RebuildOptimalRDPLayout,
    ThreeMirrorLayout,
    XCodeLayout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.core.reconstruction import split_into_phases


def _rev(n):
    return PermutationArrangement(
        n, {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
    )


ALL_LAYOUTS = [
    pytest.param(lambda: traditional_mirror(4), id="mirror"),
    pytest.param(lambda: shifted_mirror(4), id="shifted-mirror"),
    pytest.param(lambda: traditional_mirror_parity(4), id="mirror-parity"),
    pytest.param(lambda: shifted_mirror_parity(4), id="shifted-mirror-parity"),
    pytest.param(lambda: ThreeMirrorLayout(4), id="three-mirror"),
    pytest.param(
        lambda: ThreeMirrorLayout(4, ShiftedArrangement(4), _rev(4)),
        id="shifted-three-mirror",
    ),
    pytest.param(
        lambda: MirrorLayout(
            4, GroupRotatedArrangement(4, 2), name="group-rotated-mirror"
        ),
        id="group-rotated-mirror",
    ),
    pytest.param(lambda: DeclusteredMirrorLayout(4), id="declustered-mirror"),
    pytest.param(lambda: RAID5Layout(4), id="raid5"),
    pytest.param(lambda: RAID6Layout(4, "evenodd"), id="raid6-evenodd"),
    pytest.param(lambda: RAID6Layout(4, "rdp"), id="raid6-rdp"),
    pytest.param(
        lambda: RebuildOptimalRDPLayout(4), id="rebuild-optimal-rdp"
    ),
    pytest.param(lambda: XCodeLayout(5), id="xcode"),
]


@pytest.fixture(params=ALL_LAYOUTS)
def layout(request):
    return request.param()


def test_contract_content_covers_every_cell(layout):
    """content() answers for every (disk, row) with a known kind."""
    kinds = {"data", "replica", "parity", "q_parity"}
    for disk in range(layout.n_disks):
        for row in range(layout.rows):
            c = layout.content(disk, row)
            assert c.kind in kinds, (disk, row, c)


def test_contract_every_data_element_stored_exactly_once(layout):
    """Each data coordinate appears at exactly one 'data' cell and
    data_cell() points there."""
    seen = {}
    for disk in range(layout.n_disks):
        for row in range(layout.rows):
            c = layout.content(disk, row)
            if c.kind == "data":
                assert (c.i, c.j) not in seen
                seen[(c.i, c.j)] = (disk, row)
    expected = {(i, j) for i in range(layout.n) for j in range(layout.data_rows)}
    assert set(seen) == expected
    for (i, j), cell in seen.items():
        assert layout.data_cell(i, j) == cell


def test_contract_replica_cells_really_hold_replicas(layout):
    for i in range(layout.n):
        for j in range(layout.data_rows):
            for disk, row in layout.replica_cells(i, j):
                c = layout.content(disk, row)
                assert (c.kind, c.i, c.j) == ("replica", i, j)


def test_contract_storage_efficiency_in_unit_interval(layout):
    eff = layout.storage_efficiency()
    assert 0 < eff < 1


def test_contract_single_failure_plans_validate(layout):
    for f in range(layout.n_disks):
        plan = layout.reconstruction_plan([f])
        plan.validate(layout.n_disks, layout.rows)
        targets = [s.target for s in plan.steps]
        assert len(targets) == len(set(targets))
        assert set(targets) == {(f, r) for r in range(layout.rows)}


def test_contract_double_failure_plans_validate_when_tolerated(layout):
    if layout.fault_tolerance < 2:
        return
    for failed in combinations(range(layout.n_disks), 2):
        plan = layout.reconstruction_plan(failed)
        plan.validate(layout.n_disks, layout.rows)
        phases = split_into_phases(plan)
        assert [p.failed_disk for p in phases] == list(plan.failed_disks)


def test_contract_beyond_tolerance_rejected(layout):
    from repro.core.errors import UnrecoverableFailureError

    too_many = list(range(layout.fault_tolerance + 1))
    with pytest.raises(UnrecoverableFailureError):
        layout.reconstruction_plan(too_many)


def test_contract_small_write_is_one_parallel_access(layout):
    """Every architecture here writes a single element's update set to
    distinct disks — one access (RAID 6's multi-diagonal Q rows are the
    one permitted exception, still bounded by its own row count)."""
    plan = layout.write_plan([(0, 0)])
    assert plan.total_elements_written >= 2  # redundancy exists
    if isinstance(layout, RAID6Layout):
        assert plan.num_write_accesses <= layout.rows
    else:
        assert plan.num_write_accesses == 1


def test_contract_rebuild_through_controller_verifies(layout):
    from repro.raidsim.controller import RaidController

    ctrl = RaidController(layout, n_stripes=2, payload_bytes=4)
    assert ctrl.verify_redundancy()
    res = ctrl.rebuild([0])
    assert res.verified


def _random_data(layout, size=6):
    rng = np.random.default_rng(layout.n_disks)
    return rng.integers(0, 256, (layout.data_rows, layout.n, size), dtype=np.uint8)


def test_contract_encode_places_data_and_data_of_reads_it_back(layout):
    data = _random_data(layout)
    block = layout.encode(data)
    assert block.shape == (layout.n_disks, layout.rows, data.shape[2])
    for disk in range(layout.n_disks):
        for row in range(layout.rows):
            c = layout.content(disk, row)
            if c.kind in ("data", "replica"):
                assert np.array_equal(block[disk, row], data[c.j, c.i])
    assert np.array_equal(layout.data_of(block), data)


def test_contract_decode_recovers_data_under_every_tolerated_failure(layout):
    data = _random_data(layout)
    block = layout.encode(data)
    if not layout.parity_equations():
        with pytest.raises(NotImplementedError, match="no parity equations"):
            layout.decode(block, ())
        return
    for k in range(layout.fault_tolerance + 1):
        for failed in combinations(range(layout.n_disks), k):
            lost = block.copy()
            lost[list(failed)] = 0xDD
            assert np.array_equal(layout.decode(lost, failed), data), failed
