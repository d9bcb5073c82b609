"""Declarative fault plans: validation, determinism, injection mechanics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.array import ElementArray
from repro.disksim.faultplan import (
    ActiveFaults,
    DiskFailure,
    FailSlow,
    FaultPlan,
    TransientFaults,
)
from repro.disksim.faults import LatentSectorErrors
from repro.disksim.request import IOKind, IORequest

ELEM = 4 * 1024 * 1024


def _read(
    disk: int,
    slot: int,
    attempt: int = 0,
    t: float = 1.0,
    root_id: int = -1,
) -> IORequest:
    """A completed single-element read, as the engine would hand over."""
    req = IORequest(
        disk, slot * ELEM, ELEM, IOKind.READ, attempt=attempt, root_id=root_id
    )
    req.finish_time = t
    return req


def _activate(plan: FaultPlan, n_disks: int = 4, slots: int = 8) -> ActiveFaults:
    return plan.activate(ELEM, n_disks, slots)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        TransientFaults(rate=1.5)
    with pytest.raises(ValueError):
        TransientFaults(rate=0.1, retry_success_rate=0.0)
    with pytest.raises(ValueError):
        TransientFaults(rate=0.1, max_failures=0)
    with pytest.raises(ValueError):
        FailSlow(disk=0, multiplier=0.5)
    with pytest.raises(ValueError):
        FailSlow(disk=0, multiplier=2.0, start_s=3.0, end_s=1.0)
    with pytest.raises(ValueError):
        DiskFailure(disk=-1, time_s=0.0)
    with pytest.raises(ValueError):
        FaultPlan(n_random_lses=-1)
    with pytest.raises(ValueError, match="fail twice"):
        FaultPlan().with_disk_failure(2, 1.0).with_disk_failure(2, 2.0)


def test_activation_range_checks():
    with pytest.raises(ValueError, match="outside"):
        _activate(FaultPlan().with_lse((9, 0)))
    with pytest.raises(ValueError, match="outside"):
        _activate(FaultPlan().with_fail_slow(9, 2.0))
    with pytest.raises(ValueError, match="outside"):
        _activate(FaultPlan().with_disk_failure(9, 1.0))


def test_builders_compose_and_leave_original_untouched():
    base = FaultPlan(seed=3)
    full = (
        base.with_transients(rate=0.1)
        .with_fail_slow(1, 2.0)
        .with_disk_failure(2, 5.0)
        .with_lse((0, 1))
        .with_lse_burst(2)
    )
    assert base.transient is None and base.lse_cells == ()
    assert full.transient.rate == 0.1
    assert full.fail_slow[0].disk == 1
    assert full.disk_failures[0].time_s == 5.0
    assert full.lse_cells == ((0, 1),)
    assert full.n_random_lses == 2
    assert full.seed == 3


# ----------------------------------------------------------------------
# inject_random validation (regression: used to loop forever)
# ----------------------------------------------------------------------


def test_inject_random_rejects_impossible_requests():
    lse = LatentSectorErrors(ELEM)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lse.inject_random(rng, -1, 2, 4)
    with pytest.raises(ValueError):
        lse.inject_random(rng, 1, 0, 4)
    with pytest.raises(ValueError, match="only"):
        lse.inject_random(rng, 9, 2, 4)  # 9 errors into 8 cells
    # filling the array exactly is fine
    lse.inject_random(rng, 8, 2, 4)
    assert len(lse) == 8
    with pytest.raises(ValueError, match="only"):
        lse.inject_random(rng, 1, 2, 4)  # already full


def test_heal_counts_only_real_heals():
    lse = LatentSectorErrors(ELEM)
    lse.inject(0, 1)
    lse.heal(0, 1)
    lse.heal(0, 1)  # idempotent, not double counted
    lse.heal(1, 2)  # never bad
    assert lse.healed_count == 1


# ----------------------------------------------------------------------
# transient errors
# ----------------------------------------------------------------------


def test_transient_triggers_and_succeeds_within_budget():
    plan = FaultPlan(seed=0).with_transients(
        rate=1.0, retry_success_rate=0.5, max_failures=3
    )
    active = _activate(plan)
    attempts = 0
    root = -1
    for attempt in range(10):
        req = _read(0, 0, attempt=attempt, root_id=root)
        if root < 0:
            root = req.req_id  # retries descend from the first request
        active.on_completion(req)
        attempts += 1
        if not req.error:
            break
    assert attempts <= plan.transient.max_failures + 1
    assert active.counters.transient_errors >= 1
    # the error was flagged as transient on the failing attempts
    first = _read(1, 0)
    active.on_completion(first)
    assert first.error and first.error_kind == "transient"


def test_transient_rate_zero_never_fires():
    active = _activate(FaultPlan(seed=0).with_transients(rate=0.0))
    for slot in range(8):
        req = _read(0, slot)
        active.on_completion(req)
        assert not req.error


def test_unretried_transient_does_not_leak_into_fresh_reads():
    """Regression: a triggered transient that was never retried left its
    pending failure budget behind, so a *later independent read* of the
    same geometry was misclassified as a retry (it errored, or silently
    consumed the stale budget).  A fresh ``attempt == 0`` read must
    redraw from the trigger probability instead."""
    # a seed where the first read triggers with a multi-failure budget
    # (leaving pending state behind) and the second read's redraw stays
    # clean — mirroring the ActiveFaults rng stream exactly
    rate, success = 0.5, 0.3
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        if (
            float(rng.random()) < rate
            and int(rng.geometric(success)) >= 2
            and float(rng.random()) >= rate
        ):
            break
    else:  # pragma: no cover - the search space makes this unreachable
        pytest.fail("no suitable seed found")
    plan = FaultPlan(seed=seed).with_transients(
        rate=rate, retry_success_rate=success, max_failures=4
    )
    active = _activate(plan)
    first = _read(0, 0)
    active.on_completion(first)
    assert first.error and first.error_kind == "transient"
    assert active._transient_pending  # budget parked, never retried
    second = _read(0, 0)  # independent fresh read, attempt == 0
    active.on_completion(second)
    assert not second.error
    assert active._transient_pending == {}


def test_transients_ignore_writes():
    active = _activate(FaultPlan(seed=0).with_transients(rate=1.0))
    req = IORequest(0, 0, ELEM, IOKind.WRITE)
    req.finish_time = 1.0
    active.on_completion(req)
    assert not req.error


# ----------------------------------------------------------------------
# fail-slow
# ----------------------------------------------------------------------


def test_fail_slow_window_and_counter():
    plan = FaultPlan().with_fail_slow(2, 3.0, start_s=1.0, end_s=2.0)
    active = _activate(plan)
    assert active.service_factor(2, 0.5) == 1.0
    assert active.service_factor(2, 1.5) == 3.0
    assert active.service_factor(2, 2.0) == 1.0
    assert active.service_factor(0, 1.5) == 1.0
    assert active.counters.slowed_requests == 1


def test_fail_slow_inflates_simulated_service_time():
    def run(plan):
        array = ElementArray(2, ELEM, faults=_activate(plan, n_disks=2))
        array.submit_elements([(0, s) for s in range(4)], IOKind.READ)
        return array.run()

    t_clean = run(FaultPlan())
    t_slow = run(FaultPlan().with_fail_slow(0, 5.0))
    assert t_slow > 4 * t_clean


# ----------------------------------------------------------------------
# scheduled whole-disk failures
# ----------------------------------------------------------------------


def test_scheduled_failure_flags_reads_after_the_hour():
    active = _activate(FaultPlan().with_disk_failure(1, 2.0))
    early = _read(1, 0, t=1.0)
    active.on_completion(early)
    assert not early.error
    late = _read(1, 0, t=2.5)
    active.on_completion(late)
    assert late.error and late.error_kind == "disk-failed"
    assert active.failed_disks(2.5) == [1]
    assert active.failed_disks(1.0) == []


def test_lse_cells_and_burst_are_injected():
    plan = FaultPlan(seed=5).with_lse((1, 2)).with_lse_burst(3)
    active = _activate(plan)
    assert active.lse.is_bad(1, 2)
    assert len(active.lse) == 4


# ----------------------------------------------------------------------
# seeded determinism (the campaign-comparability property)
# ----------------------------------------------------------------------


@given(seed=st.integers(0, 2**31), rate=st.floats(0.05, 0.9))
@settings(max_examples=25, deadline=None)
def test_same_plan_replays_identical_fault_schedule(seed, rate):
    plan = FaultPlan(seed=seed, n_random_lses=3).with_transients(rate=rate)

    def trace(active):
        out = []
        for slot in range(6):
            for disk in range(4):
                req = _read(disk, slot)
                active.on_completion(req)
                out.append((req.error, req.error_kind))
        return out, sorted(active.lse._bad)

    a = trace(_activate(plan))
    b = trace(_activate(plan))
    assert a == b


@given(
    seed=st.integers(0, 2**31),
    success=st.floats(0.1, 1.0),
    max_failures=st.integers(1, 5),
)
@settings(max_examples=25, deadline=None)
def test_transients_always_succeed_within_max_failures_retries(
    seed, success, max_failures
):
    plan = FaultPlan(seed=seed).with_transients(
        rate=1.0, retry_success_rate=success, max_failures=max_failures
    )
    active = _activate(plan)
    failures = 0
    root = -1
    for attempt in range(max_failures + 1):
        req = _read(2, 3, attempt=attempt, root_id=root)
        if root < 0:
            root = req.req_id
        active.on_completion(req)
        if not req.error:
            break
        failures += 1
    assert failures <= max_failures
    # after the budget, the geometry is clean again
    assert (2, 3 * ELEM, ELEM) not in active._transient_pending


# ----------------------------------------------------------------------
# retry-chain identity (ActiveFaults audit regressions)
# ----------------------------------------------------------------------


def _seed_with_budget(rate: float, success: float, min_total: int) -> int:
    """A seed whose first draw triggers with ``>= min_total`` failures."""
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        if float(rng.random()) < rate and int(rng.geometric(success)) >= min_total:
            return seed
    pytest.fail("no suitable seed found")  # pragma: no cover


def test_retry_of_one_chain_cannot_steal_anothers_budget():
    """Regression (sibling of the PR 3 stale-pending leak): pending
    budgets were keyed by geometry alone, so a retry belonging to a
    *different* request chain that happened to touch the same geometry
    consumed — or errored against — another in-flight read's budget.
    A retry must only match state drawn for its own chain."""
    rate, success = 0.9, 0.2
    seed = _seed_with_budget(rate, success, min_total=3)
    plan = FaultPlan(seed=seed).with_transients(
        rate=rate, retry_success_rate=success, max_failures=5
    )
    active = _activate(plan)
    first = _read(0, 0)
    active.on_completion(first)
    assert first.error and first.error_kind == "transient"
    parked = dict(active._transient_pending)
    assert parked  # multi-failure budget parked for first's chain
    # a retry from an unrelated chain (e.g. a timeout retry elsewhere)
    # lands on the same geometry: it must be served clean and must not
    # touch the parked budget
    foreign = _read(0, 0, attempt=1, root_id=first.req_id + 10_000)
    active.on_completion(foreign)
    assert not foreign.error
    assert active._transient_pending == parked
    # first's own retry still consumes its budget and fails
    own = _read(0, 0, attempt=1, root_id=first.req_id)
    active.on_completion(own)
    assert own.error and own.error_kind == "transient"


def test_reactivation_shares_no_state():
    """Activating one plan twice must give fully isolated instances —
    counters, pending budgets and LSEs must not leak from a prior (even
    mutated) activation."""
    plan = FaultPlan(seed=11, n_random_lses=2).with_transients(
        rate=1.0, retry_success_rate=0.05, max_failures=4
    )
    first = _activate(plan)
    clean = [(d, s) for d in range(4) for s in range(8) if not first.lse.is_bad(d, s)]
    reads, extra = clean[:4], clean[4:6]
    # drive and mutate the first activation hard
    for disk, slot in reads:
        first.on_completion(_read(disk, slot))
    first_draws = {key: left for key, (_, left) in first._transient_pending.items()}
    for disk, slot in extra:
        first.lse.inject(disk, slot)
    assert first.counters.transient_errors == 4
    assert first_draws  # budgets parked for retries
    assert len(first.lse) == 4
    # a second activation starts from the plan alone
    second = _activate(plan)
    assert second.counters.transient_errors == 0
    assert second._transient_pending == {}
    assert len(second.lse) == 2  # plan burst only
    assert not any(second.lse.is_bad(disk, slot) for disk, slot in extra)
    # ...and replays the first activation's draws from the start
    for disk, slot in reads:
        second.on_completion(_read(disk, slot))
    assert {key: left for key, (_, left) in second._transient_pending.items()} == first_draws


def test_overlapping_fail_slow_windows_compose():
    """Two planned windows on one disk multiply while they overlap and
    fully deactivate when both close (nemesis composes overlapping
    fail-slow faults this way)."""
    plan = (
        FaultPlan()
        .with_fail_slow(2, 3.0, start_s=0.0, end_s=10.0)
        .with_fail_slow(2, 2.0, start_s=5.0, end_s=15.0)
    )
    active = _activate(plan)
    assert active.service_factor(2, 1.0) == 3.0  # first window only
    assert active.service_factor(2, 7.0) == 6.0  # overlap: 3 * 2
    assert active.service_factor(2, 12.0) == 2.0  # second window only
    assert active.service_factor(2, 20.0) == 1.0  # both closed
    assert active.service_factor(0, 7.0) == 1.0  # other disks untouched
    assert active.counters.slowed_requests == 3
