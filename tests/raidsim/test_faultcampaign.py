"""Fault campaigns end to end: retry, reroute, mid-rebuild failure, resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layouts import (
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.disksim.faultplan import FaultPlan
from repro.raidsim.campaign import (
    clean_rebuild_makespan,
    compare_arrangements,
    default_fault_plan,
    run_campaign,
)
from repro.raidsim.controller import (
    RaidController,
    RebuildCheckpoint,
    RetryPolicy,
)

ELEM = 4 * 1024 * 1024
N = 4
STRIPES = 6


def _controller(layout, plan, **kw):
    kw.setdefault("n_stripes", STRIPES)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, element_size=ELEM, fault_plan=plan, **kw)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0.0)
    p = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0)
    assert p.backoff_s(0) == pytest.approx(0.01)
    assert p.backoff_s(2) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)


def test_backoff_jitter_bounds_and_seeded_determinism():
    """Jittered backoff stays within ``[1-j, 1+j]`` times the base delay
    and, drawn from a seeded generator, replays bit-identically."""
    p = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0, jitter=0.5)
    rng = np.random.default_rng(7)
    draws = [p.backoff_s(1, rng) for _ in range(64)]
    assert all(0.01 <= d <= 0.03 for d in draws)
    assert len(set(draws)) > 1  # jitter actually spreads
    rng2 = np.random.default_rng(7)
    assert draws == [p.backoff_s(1, rng2) for _ in range(64)]
    # no rng (or zero jitter) degrades to the deterministic exponential
    assert p.backoff_s(1) == pytest.approx(0.02)


def test_jittered_campaign_is_bit_reproducible():
    """End-to-end determinism: the controller's retry stream is derived
    from the plan seed, so a jittered faulty rebuild replays the exact
    makespan and fault counters — and a different plan seed moves the
    jitter draws."""

    def run(seed):
        plan = default_fault_plan(2 * N, seed=seed, transient_rate=0.3)
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.01, jitter=0.5)
        ctrl = _controller(shifted_mirror(N), plan, retry_policy=policy)
        result = ctrl.rebuild([0])
        return result.makespan_s, result.fault_stats

    span_a, stats_a = run(5)
    span_b, stats_b = run(5)
    assert span_a == span_b
    assert stats_a == stats_b
    assert stats_a.retries > 0  # the jittered path actually exercised


def test_mutually_exclusive_fault_sources():
    from repro.disksim.faults import LatentSectorErrors

    with pytest.raises(ValueError, match="not both"):
        RaidController(
            shifted_mirror(N),
            element_size=ELEM,
            lse=LatentSectorErrors(ELEM),
            fault_plan=FaultPlan(),
        )


# ----------------------------------------------------------------------
# timeout / retry interplay (_RetryBatch)
# ----------------------------------------------------------------------


def test_timed_out_but_successful_final_attempt_is_accepted_as_slow():
    """A read that only ever ran out of *timeout* retries did deliver its
    bytes — it must count as ``slow_reads_accepted``, never as an
    ``abandoned_request`` (those are reads that errored out of budget)."""
    # every read on every source disk is slow enough to trip the timeout
    plan = FaultPlan(seed=1).with_transients(rate=0.0)
    for d in range(2 * N):  # mirror: n data + n replica disks
        plan = plan.with_fail_slow(d, 50.0)
    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.001, timeout_s=1e-6)
    ctrl = _controller(shifted_mirror(N), plan, retry_policy=policy)
    result = ctrl.rebuild([0])
    stats = result.fault_stats
    assert result.verified and not result.aborted
    assert stats.timeouts > 0
    assert stats.retries > 0
    # the final attempts were still too slow, yet carried the data
    assert stats.slow_reads_accepted > 0
    assert stats.abandoned_requests == 0


def test_timeout_retry_backoff_appears_in_makespan():
    """Backoff is priced in simulated time: the same timed-out rebuild
    with a fatter backoff base must take measurably longer."""
    def run(backoff_base_s):
        # no fail-slow: the backoff must starve the source disk, not
        # hide inside an already-saturated queue
        plan = FaultPlan(seed=1).with_transients(rate=0.0)
        policy = RetryPolicy(
            max_attempts=3, backoff_base_s=backoff_base_s, timeout_s=1e-6
        )
        ctrl = _controller(shifted_mirror(N), plan, retry_policy=policy)
        result = ctrl.rebuild([0])
        return result.makespan_s, result.fault_stats

    fast_span, fast_stats = run(0.0)
    slow_span, slow_stats = run(0.5)
    assert fast_stats.retries == slow_stats.retries > 0
    assert slow_stats.backoff_time_s > fast_stats.backoff_time_s == 0.0
    assert slow_span > fast_span + 0.4  # at least one 0.5 s backoff visible


def test_timeout_rebuild_deterministic_with_batch_path_off(monkeypatch):
    """The retry/timeout pipeline must not depend on the batch fast
    path: per-request submission replays the identical rebuild."""
    from repro.disksim.events import Simulation

    def run():
        plan = FaultPlan(seed=3).with_transients(rate=0.2).with_fail_slow(1, 20.0)
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01, timeout_s=0.05)
        ctrl = _controller(shifted_mirror_parity(N), plan, retry_policy=policy)
        result = ctrl.rebuild([0])
        s = result.fault_stats
        return (
            result.makespan_s,
            result.verified,
            s.retries,
            s.timeouts,
            s.slow_reads_accepted,
            s.abandoned_requests,
            s.backoff_time_s,
        )

    def submit_loop(sim, requests, callback=None):
        for r in requests:
            sim.submit(r, callback)

    batched = run()
    with monkeypatch.context() as m:
        m.setattr(Simulation, "submit_many", submit_loop)
        unbatched = run()
    assert batched == unbatched
    assert batched[1] is True


# ----------------------------------------------------------------------
# transient errors during rebuild
# ----------------------------------------------------------------------


def test_rebuild_retries_transients_and_still_verifies():
    plan = FaultPlan(seed=7).with_transients(rate=0.3)
    ctrl = _controller(shifted_mirror(N), plan)
    result = ctrl.rebuild([0])
    assert result.verified and not result.aborted
    stats = result.fault_stats
    assert stats.retries > 0
    assert stats.transient_errors > 0
    assert stats.backoff_time_s > 0
    assert stats.data_loss_events == 0
    # backoff is priced into simulated time
    clean = _controller(shifted_mirror(N), FaultPlan(seed=7)).rebuild([0])
    assert result.makespan_s > clean.makespan_s


def test_rebuild_with_faults_is_deterministic():
    plan = default_fault_plan(
        2 * N, seed=11, lse_burst=2, fail_slow_multiplier=2.0, transient_rate=0.2
    )
    a = _controller(shifted_mirror(N), plan).rebuild([0])
    b = _controller(shifted_mirror(N), plan).rebuild([0])
    assert a.makespan_s == b.makespan_s
    assert a.fault_stats == b.fault_stats
    assert a.verified == b.verified


def test_exhausted_transients_reroute_and_count_losses_honestly():
    # retry_success_rate is so low that the retry budget gets exhausted;
    # abandoned reads are rerouted through alternate sources, and
    # whatever still cannot be recovered is *counted*, never papered over
    plan = FaultPlan(seed=3).with_transients(
        rate=0.4, retry_success_rate=0.05, max_failures=8
    )
    ctrl = _controller(
        shifted_mirror_parity(N), plan, retry_policy=RetryPolicy(max_attempts=2)
    )
    result = ctrl.rebuild([0])
    stats = result.fault_stats
    assert stats.abandoned_requests > 0
    assert stats.rerouted_reads > 0
    assert result.aborted == (not result.verified)
    if not result.verified:
        assert stats.data_loss_events == len(stats.lost_columns) > 0
        ckpt = result.checkpoint
        assert ckpt is not None
        done = set(ckpt.completed[0])
        gone = {s for d, s in ckpt.lost if d == 0}
        assert done | gone == set(range(STRIPES))


# ----------------------------------------------------------------------
# fail-slow
# ----------------------------------------------------------------------


def test_fail_slow_source_disk_slows_the_rebuild():
    # disk N+1 is in the mirror array, i.e. on the rebuild's read path
    fast = _controller(shifted_mirror(N), FaultPlan(seed=1)).rebuild([0])
    slow = _controller(
        shifted_mirror(N), FaultPlan(seed=1).with_fail_slow(N + 1, 4.0)
    ).rebuild([0])
    assert slow.verified
    assert slow.makespan_s > fast.makespan_s


# ----------------------------------------------------------------------
# mid-rebuild whole-disk failure
# ----------------------------------------------------------------------


def _mid_rebuild_plan(layout, dead_disk, fraction=0.5, seed=2):
    t = fraction * clean_rebuild_makespan(
        layout, (0,), n_stripes=STRIPES, element_size=ELEM, payload_bytes=8
    )
    return FaultPlan(seed=seed).with_disk_failure(dead_disk, t)


def test_second_data_disk_death_is_replanned_in_plain_mirror():
    # both dead disks are data disks: every element still has a live
    # replica, so the enlarged failure set remains recoverable
    layout = shifted_mirror(N)
    ctrl = _controller(layout, _mid_rebuild_plan(layout, 2))
    result = ctrl.rebuild([0])
    assert result.fault_stats.mid_rebuild_failures == (2,)
    assert result.verified and not result.aborted
    assert result.checkpoint is None


def test_mirror_death_of_replica_disk_aborts_with_checkpoint():
    # data disk 0 under rebuild + a mirror disk dying mid-flight:
    # their overlapping columns are gone in a plain mirror
    layout = shifted_mirror(N)
    ctrl = _controller(layout, _mid_rebuild_plan(layout, N + 1))
    result = ctrl.rebuild([0])
    stats = result.fault_stats
    assert stats.mid_rebuild_failures == (N + 1,)
    assert result.aborted and not result.verified
    assert stats.data_loss_events > 0
    assert stats.lost_columns
    ckpt = result.checkpoint
    assert ckpt is not None
    assert set(ckpt.failed_disks) == {0, N + 1}
    # every column is accounted for: rebuilt, or recorded lost
    for d in ckpt.failed_disks:
        done = set(ckpt.completed.get(d, frozenset()))
        gone = {s for dd, s in ckpt.lost if dd == d}
        assert done | gone == set(range(STRIPES))


def test_mirror_parity_survives_the_same_death():
    layout = shifted_mirror_parity(N)
    ctrl = _controller(layout, _mid_rebuild_plan(layout, N + 1))
    result = ctrl.rebuild([0])
    assert result.fault_stats.mid_rebuild_failures == (N + 1,)
    assert result.verified and not result.aborted
    assert result.fault_stats.data_loss_events == 0


def test_death_after_rebuild_completion_does_not_interrupt():
    layout = shifted_mirror(N)
    plan = FaultPlan(seed=2).with_disk_failure(N + 1, 1e6)
    result = _controller(layout, plan).rebuild([0])
    assert result.verified
    assert result.fault_stats.mid_rebuild_failures == ()


# ----------------------------------------------------------------------
# checkpoint resume
# ----------------------------------------------------------------------


def test_resume_from_checkpoint_redoes_only_the_remainder():
    ctrl = _controller(shifted_mirror(N), FaultPlan(seed=4))
    assert ctrl.rebuild([0]).verified
    # damage the second half of disk 0 again, as if a crash had
    # interrupted the rebuild there
    done = frozenset(range(STRIPES // 2))
    for s in range(STRIPES // 2, STRIPES):
        for row in range(ctrl.layout.rows):
            ctrl.content[0, ctrl.stack.element_offset(s, row)] = 0xEE
    ckpt = RebuildCheckpoint(
        failed_disks=(0,), n_stripes=STRIPES, completed={0: done}
    )
    n_before = len(ctrl.array.sim.completed)
    result = ctrl.rebuild([0], resume_from=ckpt)
    assert result.verified and result.checkpoint is None
    assert ctrl.verify_redundancy()
    # the resumed run read only the remaining stripes' sources
    redone = [
        r for r in ctrl.array.sim.completed[n_before:] if r.tag == "rebuild"
    ]
    full_reads = STRIPES * ctrl.layout.rows
    assert sum(r.size for r in redone) == full_reads * ELEM // 2


# ----------------------------------------------------------------------
# campaigns over both arrangements
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_campaign_runs_both_arrangements_deterministically():
    layout = traditional_mirror_parity(N)
    plan = default_fault_plan(
        layout.n_disks,
        seed=2012,
        lse_burst=3,
        fail_slow_multiplier=3.0,
        second_failure_disk=layout.n_disks - 2,
        second_failure_time_s=0.5
        * clean_rebuild_makespan(
            layout, (0,), n_stripes=STRIPES, element_size=ELEM, payload_bytes=8
        ),
        transient_rate=0.05,
    )
    kwargs = dict(
        n_stripes=STRIPES,
        element_size=ELEM,
        payload_bytes=8,
        user_read_rate_per_s=20.0,
    )
    cmp_a = compare_arrangements(
        traditional_mirror_parity(N),
        shifted_mirror_parity(N),
        plan,
        **kwargs,
    )
    cmp_b = compare_arrangements(
        traditional_mirror_parity(N),
        shifted_mirror_parity(N),
        plan,
        **kwargs,
    )
    for run in (cmp_a.traditional, cmp_a.shifted):
        assert run.rebuild.verified and not run.rebuild.aborted
        assert run.data_survival == 1.0
        assert run.fault_stats.mid_rebuild_failures
        assert run.online.n_user_reads > 0
    # same plan, same seeds -> byte-identical campaign outcomes
    assert cmp_a.traditional.availability == cmp_b.traditional.availability
    assert (
        cmp_a.shifted.rebuild.makespan_s == cmp_b.shifted.rebuild.makespan_s
    )
    assert cmp_a.traditional.fault_stats == cmp_b.traditional.fault_stats
    assert np.isfinite(cmp_a.availability_delta)


@pytest.mark.slow
def test_campaign_counts_loss_on_plain_mirror():
    # disk N is data disk 0's direct replica under the traditional
    # arrangement, so its mid-rebuild death takes the whole column set
    layout = traditional_mirror(N)
    plan = _mid_rebuild_plan(layout, N, seed=6)
    run = run_campaign(
        layout,
        plan,
        n_stripes=STRIPES,
        element_size=ELEM,
        payload_bytes=8,
        user_read_rate_per_s=10.0,
    )
    assert run.rebuild.aborted
    assert run.data_survival < 1.0
    assert run.fault_stats.data_loss_events > 0
    assert run.rebuild.checkpoint is not None


def test_rebuild_heals_lses_on_the_rebuilt_column():
    # the rebuilt disk's sectors are all rewritten, so latent errors
    # recorded there are healed; a surviving source disk's LSE is the
    # scrubber's job and must stay
    plan = FaultPlan(seed=8, lse_cells=((0, 3), (N + 2, 5)))
    ctrl = _controller(shifted_mirror_parity(N), plan)
    result = ctrl.rebuild([0])
    assert result.verified
    assert result.fault_stats.healed_lses == 1
    assert not ctrl.lse.is_bad(0, 3)
    assert ctrl.lse.is_bad(N + 2, 5)
