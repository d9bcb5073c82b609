"""Degraded-mode service: reads, writes, dirty tracking, resync."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import (
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
)
from repro.raidsim.controller import RaidController
from repro.raidsim.degraded import DegradedArray
from repro.workloads.generator import WriteOp, random_large_writes


def _ctrl(layout, **kw):
    kw.setdefault("n_stripes", 4)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, **kw)


def test_too_many_failures_rejected():
    ctrl = _ctrl(shifted_mirror(3))
    with pytest.raises(UnrecoverableFailureError):
        DegradedArray(ctrl, [0, 1])


def test_failed_content_is_destroyed():
    ctrl = _ctrl(shifted_mirror(3))
    DegradedArray(ctrl, [0])
    assert np.all(ctrl.content[0] == 0xEE)


def test_read_of_intact_element_is_direct():
    ctrl = _ctrl(shifted_mirror(3))
    expected = ctrl.element_content(0, (1, 2)).copy()
    deg = DegradedArray(ctrl, [0])
    got = deg.read(0, 1, 2)
    assert np.array_equal(got, expected)
    assert deg.stats.degraded_reads == 0


def test_read_of_failed_element_served_from_replica():
    ctrl = _ctrl(shifted_mirror(3))
    expected = ctrl.element_content(1, (0, 2)).copy()
    deg = DegradedArray(ctrl, [0])
    got = deg.read(1, 0, 2)
    assert np.array_equal(got, expected)
    assert deg.stats.degraded_reads == 1
    assert deg.stats.read_latencies_s and min(deg.stats.read_latencies_s) > 0


def test_read_via_parity_path_xors_correctly():
    n = 3
    ctrl = _ctrl(shifted_mirror_parity(n))
    i, j = 0, 2
    expected = ctrl.element_content(0, (i, j)).copy()
    (rep_disk, _) = ctrl.layout.replica_cells(i, j)[0]
    deg = DegradedArray(ctrl, [i, rep_disk])  # both copies gone
    got = deg.read(0, i, j)
    assert np.array_equal(got, expected)


def test_write_while_degraded_marks_dirty_and_skips_failed():
    ctrl = _ctrl(shifted_mirror(3))
    deg = DegradedArray(ctrl, [0])
    deg.write(WriteOp(1, ((0, 1),)))  # data element on the failed disk
    assert deg.stats.elements_skipped == 1
    assert (0, 1) in deg.dirty[1]
    # the surviving replica took the new value
    (rep_cell,) = ctrl.layout.replica_cells(0, 1)
    written = ctrl.element_content(1, rep_cell)
    assert not np.all(written == 0xEE)


def test_degraded_writes_keep_surviving_parity_correct():
    n = 3
    ctrl = _ctrl(shifted_mirror_parity(n))
    deg = DegradedArray(ctrl, [0])
    rng = np.random.default_rng(3)
    for op in random_large_writes(n, 4, n_ops=10, rng=rng):
        deg.write(op, rng=rng)
    # parity over the *data array* is stale where data disk 0 died, but
    # replica+parity consistency over survivors is what resync uses;
    # verify via a full resync round-trip instead:
    res = deg.resync()
    assert res.verified


@pytest.mark.parametrize("builder", [traditional_mirror, shifted_mirror])
def test_resync_restores_untouched_data_exactly(builder):
    ctrl = _ctrl(builder(3))
    before = {
        (s, i, j): ctrl.element_content(s, (i, j)).copy()
        for s in range(4)
        for i in range(3)
        for j in range(3)
    }
    deg = DegradedArray(ctrl, [1])
    res = deg.resync()
    assert res.verified
    for (s, i, j), want in before.items():
        assert np.array_equal(ctrl.element_content(s, (i, j)), want)


def test_full_degraded_lifecycle():
    """Fail, serve reads and writes, resync, verify everything."""
    n = 4
    ctrl = _ctrl(shifted_mirror_parity(n), n_stripes=5)
    deg = DegradedArray(ctrl, [2])
    rng = np.random.default_rng(11)
    written_values = {}
    for k, op in enumerate(random_large_writes(n, 5, n_ops=12, rng=rng)):
        deg.write(op, rng=rng)
        for i, j in op.elements:
            # capture the *logical* value: the data cell if its disk
            # survives, otherwise the surviving replica (the data cell's
            # store content stays destroyed while degraded, by design)
            cell = ctrl.layout.data_cell(i, j)
            if cell[0] == 2:
                (cell,) = ctrl.layout.replica_cells(i, j)
            written_values[(op.stripe, i, j)] = ctrl.element_content(
                op.stripe, cell
            ).copy()
    # reads during degradation return the written values
    for (stripe, i, j), want in list(written_values.items())[:5]:
        assert np.array_equal(deg.read(stripe, i, j), want)
    res = deg.resync()
    assert res.verified
    # and after resync the rebuilt disk serves them too
    for (stripe, i, j), want in written_values.items():
        assert np.array_equal(
            ctrl.element_content(stripe, ctrl.layout.data_cell(i, j)), want
        )
    assert ctrl.verify_redundancy()


def test_stats_accumulate():
    ctrl = _ctrl(shifted_mirror(3))
    deg = DegradedArray(ctrl, [0])
    deg.read(0, 0, 0)
    deg.read(0, 1, 0)
    deg.write(WriteOp(0, ((1, 1),)))
    assert deg.stats.reads_served == 2
    assert deg.stats.degraded_reads == 1
    assert deg.stats.writes_served == 1


def test_three_mirror_degraded_double_failure_lifecycle():
    """Triple replication serves through *two* failures and resyncs."""
    from repro.core.arrangement import PermutationArrangement, ShiftedArrangement
    from repro.core.layouts import ThreeMirrorLayout

    n = 3
    rev = PermutationArrangement(
        n, {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
    )
    ctrl = _ctrl(ThreeMirrorLayout(n, ShiftedArrangement(n), rev))
    deg = DegradedArray(ctrl, [0, 4])
    # reads of doubly-shadowed data still served from the third copy
    want = ctrl.element_content(0, ctrl.layout.mirror_cell(0, 1, 1)).copy()
    got = deg.read(0, 0, 1)
    assert np.array_equal(got, want)
    rng = np.random.default_rng(5)
    for op in random_large_writes(n, 4, n_ops=6, rng=rng):
        deg.write(op, rng=rng)
    res = deg.resync()
    assert res.verified
    assert ctrl.verify_redundancy()


def test_raid6_degraded_mode_not_supported():
    from repro.core.layouts import RAID6Layout

    ctrl = _ctrl(RAID6Layout(4, "rdp"))
    with pytest.raises(NotImplementedError, match="mirror family"):
        DegradedArray(ctrl, [0])
