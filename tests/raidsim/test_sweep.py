"""Seeded campaign sweeps: parallel == serial, bit for bit.

The fan-out contract (docs/performance.md) is that ``jobs=N`` is purely
a scheduling decision: per-point randomness derives from
``SeedSequence`` children of the root seed, workers are handed plain
integers, and results merge in seed order — so a pool run must produce
*exactly* the object the serial loop does.
"""

from __future__ import annotations

from repro.raidsim.campaign import (
    SweepResult,
    compare_sweep,
    derive_sweep_seeds,
)

_KW = dict(n_stripes=4, user_read_rate_per_s=20.0)


def test_derive_sweep_seeds_is_deterministic_and_distinct():
    a = derive_sweep_seeds(2012, 8)
    assert a == derive_sweep_seeds(2012, 8)
    assert len(set(a)) == 8  # independent storms, no seed collisions
    assert derive_sweep_seeds(2013, 8) != a


def test_derive_sweep_seeds_prefix_stable():
    """Growing a sweep keeps the earlier points' seeds unchanged."""
    assert derive_sweep_seeds(7, 3) == derive_sweep_seeds(7, 6)[:3]


def test_parallel_sweep_bit_identical_to_serial():
    serial = compare_sweep("mirror", 3, n_seeds=3, jobs=1, **_KW)
    pooled = compare_sweep("mirror", 3, n_seeds=3, jobs=2, **_KW)
    # recursive dataclass equality: every latency, counter and verdict
    assert serial == pooled


def test_persistent_pool_sweep_bit_identical_to_serial():
    """A WorkerPool with a shared film block is still a pure scheduling
    decision — two sweeps on one pool both match the serial run."""
    from repro.parallel import WorkerPool

    serial = compare_sweep("mirror", 3, n_seeds=3, jobs=1, **_KW)
    with WorkerPool(jobs=2) as pool:
        # campaign film: controller seed 2012, payload 16 (run_campaign
        # default), sized for the sweep's stripes and mirror geometry
        pool.share_film(2012, 16, n_stripes=_KW["n_stripes"], n_i=3, n_j=3)
        first = compare_sweep("mirror", 3, n_seeds=3, pool=pool, **_KW)
        second = compare_sweep("mirror", 3, n_seeds=3, pool=pool, **_KW)
    assert serial == first == second


def test_sweep_sizes_its_read_window_once_per_pair_layout(monkeypatch):
    """The clean rebuilds the window is sized off are the same for every
    seed, so a sweep dry-runs each side of the pair once, in the parent."""
    import repro.raidsim.campaign as campaign

    sized = []
    real = campaign.clean_rebuild_makespan

    def counted(layout, *args, **kwargs):
        sized.append(layout.name)
        return real(layout, *args, **kwargs)

    monkeypatch.setattr(campaign, "clean_rebuild_makespan", counted)
    serial = compare_sweep("mirror-parity", 3, n_seeds=3, jobs=1, **_KW)
    assert sized == ["mirror-parity", "shifted-mirror-parity"]
    pooled = compare_sweep("mirror-parity", 3, n_seeds=3, jobs=2, **_KW)
    assert serial == pooled


def test_sweep_points_carry_their_seeds_in_order():
    sweep = compare_sweep("mirror", 3, n_seeds=3, jobs=1, **_KW)
    assert isinstance(sweep, SweepResult)
    assert [p.seed_index for p in sweep.points] == [0, 1, 2]
    expected = derive_sweep_seeds(sweep.root_seed, 3)
    assert [(p.fault_seed, p.user_read_seed) for p in sweep.points] == list(expected)
    assert len(sweep) == 3


def test_sweep_aggregates_are_well_defined():
    sweep = compare_sweep("mirror", 3, n_seeds=2, jobs=1, **_KW)
    worst_traditional, worst_shifted = sweep.worst_data_survival
    assert 0.0 <= worst_traditional <= 1.0
    assert 0.0 <= worst_shifted <= 1.0
    assert 0 <= sweep.shifted_wins <= len(sweep)
    assert sweep.mean_latency_speedup > 0


def test_unknown_family_rejected_before_any_work():
    import pytest

    with pytest.raises(ValueError, match="no registered comparison pair"):
        compare_sweep("raid5", 4, n_seeds=2, jobs=1, **_KW)
