"""Round packing: rounds realise the paper's parallel-I/O access model."""

from __future__ import annotations

from itertools import combinations

from repro.core.layouts import (
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
)
from repro.core.plancache import PlanCache


def test_empty_schedule():
    assert PlanCache(shifted_mirror(3)).read_rounds(()) == []


def test_each_round_touches_each_disk_at_most_once():
    lay = shifted_mirror_parity(4)
    cache = PlanCache(lay)
    for failed in combinations(range(lay.n_disks), 2):
        for batch in cache.read_rounds(failed):
            disks = [d for d, _ in batch]
            assert len(disks) == len(set(disks))


def test_round_count_equals_max_queue():
    cache = PlanCache(traditional_mirror(3))
    assert len(cache.read_rounds((0,))) == 3


def test_all_operations_scheduled_exactly_once():
    lay = shifted_mirror_parity(4)
    cache = PlanCache(lay)
    for failed in combinations(range(lay.n_disks), 2):
        flat = [op for batch in cache.read_rounds(failed) for op in batch]
        reads = cache.plan(failed).reads
        assert sorted(flat) == sorted((d, r) for d, rows in reads.items() for r in rows)


def test_rounds_equal_num_read_accesses_for_all_mirror_plans():
    """The invariant that makes `num_read_accesses` *the* access count."""
    for n in (2, 3, 5):
        for builder in (traditional_mirror, shifted_mirror):
            lay = builder(n)
            cache = PlanCache(lay)
            for f in range(lay.n_disks):
                plan = lay.reconstruction_plan([f])
                assert len(cache.read_rounds((f,))) == plan.num_read_accesses


def test_rounds_equal_accesses_for_parity_double_failures():
    lay = shifted_mirror_parity(4)
    cache = PlanCache(lay)
    for failed in combinations(range(lay.n_disks), 2):
        plan = lay.reconstruction_plan(failed)
        assert len(cache.read_rounds(failed)) == plan.num_read_accesses


def test_write_rounds_from_write_plan():
    lay = shifted_mirror_parity(4)
    plan = lay.large_write_plan(1)
    assert plan.num_write_accesses == 1
    assert len(plan.writes) == 9  # 4 data + 4 replicas + parity
