"""Nemesis scheduler: determinism, orthogonal knobs, the safety budget."""

from __future__ import annotations

import pytest

from repro.nemesis import FAULT_KINDS, HazardRates, build_schedule
from repro.nemesis.schedule import BURST_RATE, FAIL_SLOW_MULTIPLIER, LSE_STORM_SIZE

WEEK_S = 7 * 86_400.0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_build_schedule_validates_arguments():
    with pytest.raises(ValueError, match="n_disks"):
        build_schedule(0, WEEK_S)
    with pytest.raises(ValueError, match="horizon_s"):
        build_schedule(8, 0.0)
    with pytest.raises(ValueError, match="safety_budget"):
        build_schedule(8, WEEK_S, safety_budget=-1)


def test_hazard_rates_validation():
    with pytest.raises(ValueError, match="disk_death_per_day"):
        HazardRates(disk_death_per_day=-0.1)
    with pytest.raises(ValueError, match="lse_storm_per_day"):
        HazardRates(lse_storm_per_day=-1.0)


def test_of_kind_rejects_unknown_kind():
    sched = build_schedule(8, WEEK_S, seed=1)
    with pytest.raises(ValueError, match="unknown fault kind"):
        sched.of_kind("gamma-ray")


# ----------------------------------------------------------------------
# determinism and knob orthogonality
# ----------------------------------------------------------------------


def test_schedule_is_a_pure_function_of_its_arguments():
    a = build_schedule(8, WEEK_S, seed=2012)
    b = build_schedule(8, WEEK_S, seed=2012)
    assert a.to_dict() == b.to_dict()


def test_different_seeds_draw_different_storms():
    a = build_schedule(8, WEEK_S, seed=1)
    b = build_schedule(8, WEEK_S, seed=2)
    assert a.to_dict() != b.to_dict()


def test_rate_knobs_are_orthogonal_across_classes():
    """Raising one class's rate must not move another class's arrivals."""
    base = build_schedule(8, WEEK_S, seed=5)
    cranked = build_schedule(
        8, WEEK_S, seed=5, rates=HazardRates(fail_slow_per_day=6.0)
    )
    key = lambda f: (f.kind, f.disk, f.start_s, f.end_s, f.magnitude)  # noqa: E731
    for kind in ("disk-death", "transient-burst", "lse-storm"):
        assert [key(f) for f in base.of_kind(kind)] == [
            key(f) for f in cranked.of_kind(kind)
        ]
    assert len(cranked.of_kind("fail-slow")) > len(base.of_kind("fail-slow"))


def test_zero_rate_disables_a_class():
    sched = build_schedule(
        8,
        WEEK_S,
        seed=3,
        rates=HazardRates(lse_storm_per_day=0.0, disk_death_per_day=0.0),
    )
    assert sched.of_kind("lse-storm") == ()
    assert sched.of_kind("disk-death") == ()
    assert sched.dropped_deaths == 0


def test_faults_are_time_sorted_with_sequential_ids():
    sched = build_schedule(8, WEEK_S, seed=9)
    assert [f.fault_id for f in sched.faults] == list(range(len(sched)))
    starts = [f.start_s for f in sched.faults]
    assert starts == sorted(starts)
    assert all(0.0 <= f.start_s < WEEK_S for f in sched.faults)
    assert all(f.end_s > f.start_s for f in sched.faults)


def test_magnitudes_stay_inside_their_configured_ranges():
    rates = HazardRates(
        fail_slow_per_day=4.0, transient_burst_per_day=4.0, lse_storm_per_day=4.0
    )
    sched = build_schedule(8, WEEK_S, seed=11, rates=rates)
    for f in sched.of_kind("fail-slow"):
        assert FAIL_SLOW_MULTIPLIER[0] <= f.magnitude <= FAIL_SLOW_MULTIPLIER[1]
        assert 0 <= f.disk < 8
    for f in sched.of_kind("transient-burst"):
        assert BURST_RATE[0] <= f.magnitude <= BURST_RATE[1]
        assert f.disk == -1
    for f in sched.of_kind("lse-storm"):
        assert LSE_STORM_SIZE[0] <= f.magnitude <= LSE_STORM_SIZE[1]
        assert float(f.magnitude).is_integer()


# ----------------------------------------------------------------------
# the safety budget
# ----------------------------------------------------------------------


def _max_concurrent_deaths(sched):
    deaths = sched.of_kind("disk-death")
    return max(
        (sum(1 for d in deaths if d.active_at(f.start_s)) for f in deaths),
        default=0,
    )


def test_safety_budget_caps_concurrent_deaths():
    rates = HazardRates(disk_death_per_day=20.0)  # hammer it
    sched = build_schedule(8, WEEK_S, seed=7, rates=rates, safety_budget=1)
    assert _max_concurrent_deaths(sched) <= 1
    assert sched.dropped_deaths > 0
    sched2 = build_schedule(8, WEEK_S, seed=7, rates=rates, safety_budget=2)
    assert _max_concurrent_deaths(sched2) <= 2


def test_allow_excess_lifts_the_budget_but_never_rekills_a_dead_disk():
    rates = HazardRates(disk_death_per_day=20.0)
    sched = build_schedule(
        8, WEEK_S, seed=7, rates=rates, safety_budget=1, allow_excess=True
    )
    assert _max_concurrent_deaths(sched) > 1
    # while a disk is under repair it must not be drawn dead again
    deaths = sched.of_kind("disk-death")
    for f in deaths:
        overlapping_same_disk = [
            d
            for d in deaths
            if d is not f and d.disk == f.disk
            and d.start_s < f.end_s and f.start_s < d.end_s
        ]
        assert overlapping_same_disk == []


def test_active_at_reflects_fault_windows():
    sched = build_schedule(8, WEEK_S, seed=13)
    assert len(sched) > 0
    f = sched.faults[0]
    assert f in sched.active_at(f.start_s)
    assert f not in sched.active_at(f.end_s)


def test_to_dict_is_schema_versioned():
    sched = build_schedule(8, WEEK_S, seed=1)
    d = sched.to_dict()
    assert d["schema_version"] == 1
    assert d["n_disks"] == 8
    assert len(d["faults"]) == len(sched)
    assert set(f["kind"] for f in d["faults"]) <= set(FAULT_KINDS)
