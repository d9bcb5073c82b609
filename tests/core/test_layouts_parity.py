"""Mirror-with-parity layouts: Table I semantics case by case."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.analysis import cost
from repro.core.errors import LayoutError, UnrecoverableFailureError
from repro.core.layouts import (
    MirrorParityLayout,
    shifted_mirror_parity,
    traditional_mirror_parity,
)
from repro.core.reconstruction import RecoveryMethod


def test_counts_and_names():
    lay = shifted_mirror_parity(5)
    assert lay.n_disks == 11
    assert lay.parity_disk == 10
    assert lay.fault_tolerance == 2
    assert lay.name == "shifted-mirror-parity"
    assert traditional_mirror_parity(5).name == "mirror-parity"


def test_needs_two_data_disks():
    with pytest.raises(LayoutError):
        MirrorParityLayout(1)


def test_storage_efficiency():
    assert shifted_mirror_parity(5).storage_efficiency() == 5 / 11
    assert traditional_mirror_parity(3).storage_efficiency() == 3 / 7


def test_content_includes_parity_column():
    lay = shifted_mirror_parity(3)
    for j in range(3):
        c = lay.content(6, j)
        assert c.kind == "parity" and c.j == j


# ----------------------------------------------------------------------
# write plans (§VI-C): optimal small and large writes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("builder", [traditional_mirror_parity, shifted_mirror_parity])
def test_small_write_three_elements_one_access(builder):
    lay = builder(5)
    plan = lay.write_plan([(1, 2)])
    assert plan.total_elements_written == 3  # data + replica + parity
    assert plan.num_write_accesses == 1
    # read-modify-write inputs: old data + old parity
    assert plan.total_elements_read == 2


@pytest.mark.parametrize("builder", [traditional_mirror_parity, shifted_mirror_parity])
def test_large_write_one_access_no_reads(builder):
    lay = builder(4)
    plan = lay.large_write_plan(2)
    assert plan.num_write_accesses == 1
    assert plan.total_elements_written == 9  # n data + n replicas + parity
    assert plan.total_elements_read == 0  # parity computed from new data


def test_reconstruct_write_reads_untouched_row_elements():
    lay = shifted_mirror_parity(5)
    plan = lay.write_plan([(0, 1), (1, 1)], strategy="reconstruct")
    # reads the 3 untouched data elements of row 1, not the old parity
    assert plan.total_elements_read == 3
    read_cells = {(d, r) for d, rows in plan.reads.items() for r in rows}
    assert read_cells == {(2, 1), (3, 1), (4, 1)}


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="strategy"):
        shifted_mirror_parity(3).write_plan([(0, 0)], strategy="wombat")


def test_multi_row_write_parity_per_row():
    lay = shifted_mirror_parity(4)
    plan = lay.write_plan([(0, 0), (0, 1)])
    parity_writes = plan.writes.get(lay.parity_disk, [])
    assert parity_writes == [0, 1]


# ----------------------------------------------------------------------
# reconstruction: all single failures
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_single_failure_accesses(n):
    trad, shif = traditional_mirror_parity(n), shifted_mirror_parity(n)
    for f in range(2 * n):  # array disks
        assert cost(trad, [f]).data_recovery_read_accesses == n
        assert cost(shif, [f]).data_recovery_read_accesses == 1
    # parity disk alone: no data lost
    assert cost(trad, [2 * n]).data_recovery_read_accesses == 0
    assert cost(shif, [2 * n]).data_recovery_read_accesses == 0


def test_parity_failure_recomputes_from_all_data():
    lay = shifted_mirror_parity(3)
    plan = lay.reconstruction_plan([6])
    assert all(s.method is RecoveryMethod.RECOMPUTE for s in plan.steps)
    assert plan.num_read_accesses == 3  # each data disk surrenders its column


# ----------------------------------------------------------------------
# reconstruction: all double failures, classified per Table I
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_table1_access_counts_by_situation(n):
    lay = shifted_mirror_parity(n)
    parity = 2 * n
    for failed in combinations(range(lay.n_disks), 2):
        accesses = cost(lay, failed).data_recovery_read_accesses
        if parity in failed:
            assert accesses == 1, failed  # F1
        else:
            assert accesses == 2, failed  # F2 and F3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_traditional_always_n_accesses(n):
    lay = traditional_mirror_parity(n)
    for failed in combinations(range(lay.n_disks), 2):
        assert cost(lay, failed).data_recovery_read_accesses == n, failed


def test_f3_plan_detail_shifted():
    """§V-B4 for n=5, data disk 1 and mirror disk 3 failed: the doubly
    failed element is a[1, <3-1>_5] = a[1, 2]; it is rebuilt from row 2
    and the parity element; everything else is replica copies."""
    n = 5
    lay = shifted_mirror_parity(n)
    plan = lay.reconstruction_plan([1, n + 3])
    xor_steps = [s for s in plan.steps if s.method is RecoveryMethod.XOR]
    assert len(xor_steps) == 1
    assert xor_steps[0].target == (1, 2)
    assert (lay.parity_disk, 2) in xor_steps[0].sources
    copy_steps = [s for s in plan.steps if s.method is RecoveryMethod.COPY]
    assert len(copy_steps) == 2 * n - 1


def test_replica_pair_failure_traditional_goes_through_parity():
    """Traditional arrangement, data disk x and mirror disk x: every
    element is doubly lost, so all recovery flows through parity."""
    n = 4
    lay = traditional_mirror_parity(n)
    plan = lay.reconstruction_plan([1, n + 1])
    xor_targets = {s.target for s in plan.steps if s.method is RecoveryMethod.XOR}
    assert xor_targets == {(1, j) for j in range(n)}
    # the mirror column is then copied from the recovered data column
    copy_steps = [s for s in plan.steps if s.method is RecoveryMethod.COPY]
    assert all(s.sources[0][0] == 1 for s in copy_steps)


def test_replica_pair_plus_parity_is_unrecoverable():
    n = 3
    lay = traditional_mirror_parity(n)
    with pytest.raises(UnrecoverableFailureError):
        lay.reconstruction_plan([0, n + 0, 2 * n])


def test_triple_failure_rejected():
    with pytest.raises(UnrecoverableFailureError):
        shifted_mirror_parity(4).reconstruction_plan([0, 1, 2])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("builder", [traditional_mirror_parity, shifted_mirror_parity])
def test_all_double_failure_plans_validate(n, builder):
    lay = builder(n)
    for failed in combinations(range(lay.n_disks), 2):
        plan = lay.reconstruction_plan(failed)
        plan.validate(lay.n_disks, lay.rows)
        # every element of every failed disk is recovered exactly once
        targets = [s.target for s in plan.steps]
        assert len(targets) == len(set(targets))
        expected = {(f, r) for f in failed for r in range(lay.rows)}
        assert set(targets) == expected
