"""PlanCache: one derivation per logical-failure equivalence class."""

from __future__ import annotations

import pytest

from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import MirrorLayout, shifted_mirror, shifted_mirror_parity
from repro.core.plancache import PlanCache
from repro.raidsim.controller import RaidController


def test_plan_computed_once_per_failure_set():
    cache = PlanCache(shifted_mirror_parity(3))
    first = cache.plan((0,))
    assert cache.plan((0,)) is first  # shared object, not a copy
    assert (cache.hits, cache.misses) == (1, 1)
    cache.plan((1,))
    assert (cache.hits, cache.misses) == (1, 2)
    assert len(cache) == 2


def test_cached_plan_matches_direct_derivation():
    layout = shifted_mirror_parity(3)
    cache = PlanCache(layout)
    assert cache.plan((0, 2)).num_read_accesses == (
        layout.reconstruction_plan((0, 2)).num_read_accesses
    )


def test_phases_and_rounds_are_memoised():
    cache = PlanCache(shifted_mirror(3))
    assert cache.phases((0,)) is cache.phases((0,))
    assert cache.read_rounds((0,)) is cache.read_rounds((0,))


def test_unrecoverable_failures_cached_as_negative_results():
    layout = MirrorLayout(3)
    # find a 2-disk set beyond the mirror's tolerance
    bad = next(
        failed
        for failed in layout.all_failure_sets(2)
        if _unrecoverable(layout, failed)
    )
    cache = PlanCache(layout)
    with pytest.raises(UnrecoverableFailureError):
        cache.plan(tuple(bad))
    misses = cache.misses
    with pytest.raises(UnrecoverableFailureError):
        cache.plan(tuple(bad))
    assert cache.misses == misses  # second probe was a (negative) hit
    assert cache.hits == 1


def _unrecoverable(layout, failed) -> bool:
    try:
        layout.reconstruction_plan(failed)
    except UnrecoverableFailureError:
        return True
    return False


def test_disabled_cache_recomputes_every_call():
    cache = PlanCache(shifted_mirror(3), enabled=False)
    a = cache.plan((0,))
    b = cache.plan((0,))
    assert a is not b
    assert len(cache) == 0


def test_rebuild_results_identical_with_and_without_cache():
    """The cache is a pure memo: same makespan, same verification."""
    results = []
    for plan_cache in (True, False):
        ctrl = RaidController(
            shifted_mirror_parity(3),
            n_stripes=6,
            payload_bytes=8,
            plan_cache=plan_cache,
        )
        results.append(ctrl.rebuild((0,)))
    cached, uncached = results
    assert cached.makespan_s == uncached.makespan_s
    assert cached.recovered_bytes == uncached.recovered_bytes
    assert cached.verified and uncached.verified


def test_controller_cache_hits_across_stripes():
    """Identical stripes of a rotated stack share one plan derivation."""
    ctrl = RaidController(shifted_mirror(3), n_stripes=8, payload_bytes=8)
    ctrl.rebuild((0,))
    # one logical class per rotation offset at most; far fewer misses
    # than the 8 per-stripe derivations the seed code performed
    assert ctrl.plan_cache.hits > 0
    assert ctrl.plan_cache.misses <= ctrl.layout.n_disks


def _cells(table):
    return sorted((disk, row) for disk, rows in table.items() for row in rows)


@pytest.mark.parametrize("strategy", ["rmw", "reconstruct"])
def test_write_plans_compile_to_the_plans_cells(strategy):
    layout = shifted_mirror_parity(4)
    cache = PlanCache(layout)
    elements = ((2, 1), (0, 1), (3, 3))
    entry = cache.write_plan(elements, strategy)
    plan = layout.write_plan(list(elements), strategy=strategy)
    assert sorted(zip(*(a.tolist() for a in entry.writes))) == _cells(plan.writes)
    assert sorted(zip(*(a.tolist() for a in entry.reads))) == _cells(plan.reads)
    assert list(zip(*(a.tolist() for a in entry.data))) == [(j, i) for i, j in elements]
    assert entry.n_payloads == 3
    assert cache.write_plan(list(elements), strategy) is entry  # keyed by value
    other = {"rmw": "reconstruct", "reconstruct": "rmw"}[strategy]
    assert cache.write_plan(elements, other) is not entry
    assert (cache.hits, cache.misses) == (0, 0)  # reconstruction counters untouched


def test_repeated_element_takes_its_last_payload():
    entry = PlanCache(shifted_mirror(3)).write_plan(((1, 0), (2, 2), (1, 0)))
    assert entry.n_payloads == 3
    assert list(zip(*(a.tolist() for a in entry.data))) == [(0, 1), (2, 2)]
    assert entry.pick.tolist() == [2, 1]


def test_write_plans_flushed_and_recomputed_when_disabled():
    cache = PlanCache(shifted_mirror(3))
    entry = cache.write_plan(((0, 0),))
    assert cache.write_plan(((0, 0),)) is entry
    off = PlanCache(shifted_mirror(3), enabled=False)
    assert off.write_plan(((0, 0),)) is not off.write_plan(((0, 0),))
