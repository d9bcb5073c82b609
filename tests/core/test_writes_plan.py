"""WritePlan mechanics independent of any particular layout."""

from __future__ import annotations

from repro.core.writes import WritePlan


def test_empty_plan():
    plan = WritePlan()
    assert plan.num_write_accesses == 0
    assert plan.num_read_accesses == 0
    assert plan.total_elements_written == 0


def test_add_write_dedups_and_sorts():
    plan = WritePlan()
    plan.add_write(2, 5)
    plan.add_write(2, 1)
    plan.add_write(2, 5)
    assert plan.writes == {2: [1, 5]}
    assert plan.total_elements_written == 2


def test_accesses_are_max_per_disk():
    plan = WritePlan()
    plan.add_write(0, 0)
    plan.add_write(0, 1)
    plan.add_write(1, 0)
    plan.add_read(3, 2)
    assert plan.num_write_accesses == 2
    assert plan.num_read_accesses == 1


def test_totals_count_elements_not_disks():
    plan = WritePlan()
    for disk in range(3):
        for row in range(2):
            plan.add_write(disk, row)
    plan.add_read(0, 0)
    assert plan.total_elements_written == 6
    assert plan.total_elements_read == 1
