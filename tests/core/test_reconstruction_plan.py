"""ReconstructionPlan mechanics: dedup, accounting, validation, phases."""

from __future__ import annotations

import pytest

from repro.core.layouts import shifted_mirror_parity, traditional_mirror_parity
from repro.core.reconstruction import (
    ReconstructionPlan,
    RecoveryMethod,
    split_into_phases,
)


def test_add_read_dedups_and_sorts():
    plan = ReconstructionPlan((9,))
    plan.add_read(1, 3)
    plan.add_read(1, 0)
    plan.add_read(1, 3)
    assert plan.reads == {1: [0, 3]}


def test_num_read_accesses_is_max_per_disk():
    plan = ReconstructionPlan((9,))
    for r in range(4):
        plan.add_read(0, r)
    plan.add_read(1, 0)
    assert plan.num_read_accesses == 4
    assert plan.total_elements_read == 5
    assert plan.reads_per_disk() == {0: 4, 1: 1}


def test_empty_plan_zero_accesses():
    plan = ReconstructionPlan(())
    assert plan.num_read_accesses == 0


def test_add_step_registers_source_reads():
    plan = ReconstructionPlan((5,))
    plan.add_step((5, 0), RecoveryMethod.COPY, [(2, 1)])
    assert plan.reads == {2: [1]}


def test_add_step_skips_failed_and_produced_sources():
    plan = ReconstructionPlan((5, 6))
    plan.add_step((5, 0), RecoveryMethod.XOR, [(0, 0), (1, 0)])
    # second step sources the first step's output and a failed disk
    plan.add_step((6, 0), RecoveryMethod.COPY, [(5, 0)])
    assert 5 not in plan.reads and 6 not in plan.reads


def test_validate_rejects_read_from_failed_disk():
    plan = ReconstructionPlan((1,))
    plan.add_read(1, 0)
    with pytest.raises(AssertionError, match="failed disk"):
        plan.validate(4, 4)


def test_validate_rejects_unread_source():
    from repro.core.reconstruction import RecoveryStep

    plan = ReconstructionPlan((3,))
    plan.steps.append(RecoveryStep((3, 0), RecoveryMethod.COPY, ((1, 0),)))
    with pytest.raises(AssertionError, match="never read"):
        plan.validate(4, 4)


def test_validate_rejects_unrecovered_failed_source():
    from repro.core.reconstruction import RecoveryStep

    plan = ReconstructionPlan((2, 3))
    plan.steps.append(RecoveryStep((2, 0), RecoveryMethod.COPY, ((3, 0),)))
    with pytest.raises(AssertionError, match="unrecovered source"):
        plan.validate(5, 4)


def test_validate_rejects_out_of_range():
    plan = ReconstructionPlan((0,))
    plan.add_read(10, 0)
    with pytest.raises(AssertionError, match="out of range"):
        plan.validate(4, 4)


# ----------------------------------------------------------------------
# phase splitting
# ----------------------------------------------------------------------


def test_phases_cover_plan_exactly():
    lay = shifted_mirror_parity(5)
    plan = lay.reconstruction_plan([1, 8])
    phases = split_into_phases(plan)
    assert [p.failed_disk for p in phases] == [1, 8]
    # steps partition
    phase_steps = [s for p in phases for s in p.steps]
    assert phase_steps == plan.steps
    # reads partition (no element fetched twice)
    seen = set()
    for p in phases:
        for disk, rows in p.reads.items():
            for r in rows:
                assert (disk, r) not in seen
                seen.add((disk, r))
    want = {(d, r) for d, rows in plan.reads.items() for r in rows}
    assert seen == want


def test_phase_read_dedup_across_phases():
    """Traditional replica-pair failure: phase 2 (mirror column) copies
    from phase 1's recovered data and reads nothing new."""
    n = 4
    lay = traditional_mirror_parity(n)
    plan = lay.reconstruction_plan([1, n + 1])
    phases = split_into_phases(plan)
    # parity path reads columns
    assert max(len(rows) for rows in phases[0].reads.values()) == n
    assert phases[1].reads == {}  # pure copy from recovered content


def test_single_failure_single_phase():
    lay = shifted_mirror_parity(4)
    plan = lay.reconstruction_plan([2])
    phases = split_into_phases(plan)
    assert len(phases) == 1
    assert phases[0].reads == plan.reads


def test_phase_accesses_never_exceed_plan_accesses_summed():
    """Sanity: splitting cannot create reads out of thin air."""
    lay = shifted_mirror_parity(6)
    for failed in [(0, 3), (0, 7), (2, 12), (6, 7)]:
        plan = lay.reconstruction_plan(failed)
        phases = split_into_phases(plan)
        total_phase_reads = sum(
            len(rows) for p in phases for rows in p.reads.values()
        )
        assert total_phase_reads == plan.total_elements_read
