"""Rebuild execution: correctness, timing structure, spares, rotation."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.layouts import (
    RAID5Layout,
    RAID6Layout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.disksim.disk import DiskParameters
from repro.raidsim.controller import RaidController
from repro.workloads.openloop import FixedThrottle


def _ctrl(layout, **kw):
    kw.setdefault("n_stripes", 4)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, **kw)


# ----------------------------------------------------------------------
# correctness across the architecture zoo
# ----------------------------------------------------------------------


@pytest.mark.parametrize("builder", [traditional_mirror, shifted_mirror])
def test_mirror_rebuild_every_single_failure(builder):
    lay = builder(4)
    for f in range(lay.n_disks):
        res = _ctrl(builder(4)).rebuild([f])
        assert res.verified
        assert res.failed_disks == (f,)
        assert res.bytes_read > 0


@pytest.mark.parametrize("builder", [traditional_mirror_parity, shifted_mirror_parity])
def test_parity_rebuild_every_double_failure(builder):
    lay = builder(3)
    for failed in combinations(range(lay.n_disks), 2):
        res = _ctrl(builder(3)).rebuild(failed)
        assert res.verified, failed


@pytest.mark.parametrize("code", ["evenodd", "rdp"])
def test_raid6_rebuild_every_double_failure(code):
    lay = RAID6Layout(4, code)
    for failed in combinations(range(lay.n_disks), 2):
        res = _ctrl(RAID6Layout(4, code)).rebuild(failed)
        assert res.verified, failed


def test_raid5_rebuild_all_singles():
    for f in range(6):
        assert _ctrl(RAID5Layout(5)).rebuild([f]).verified


def test_rebuild_under_rotation():
    """With role rotation each stripe exercises a different logical
    failure; the per-stripe planner must track that."""
    ctrl = _ctrl(shifted_mirror_parity(3), rotate=True, n_stripes=7)
    for failed in [(0,), (4,), (6,), (0, 3), (2, 6)]:
        ctrl = _ctrl(shifted_mirror_parity(3), rotate=True, n_stripes=7)
        assert ctrl.rebuild(failed).verified, failed


def test_rebuild_restores_redundancy_invariant():
    ctrl = _ctrl(shifted_mirror_parity(4))
    ctrl.rebuild([1, 7])
    assert ctrl.verify_redundancy()


# ----------------------------------------------------------------------
# failure-mode handling
# ----------------------------------------------------------------------


def test_unknown_disk_rejected():
    with pytest.raises(ValueError, match="outside the architecture"):
        _ctrl(shifted_mirror(3)).rebuild([6])


def test_spare_writes_require_spares():
    ctrl = _ctrl(shifted_mirror(3), spares=0)
    with pytest.raises(ValueError, match="spares"):
        ctrl.rebuild([0], write_spare=True)


def test_rebuild_to_spare_writes_recovered_bytes():
    ctrl = _ctrl(shifted_mirror(3), spares=1)
    res = ctrl.rebuild([0], write_spare=True)
    assert res.verified
    assert res.bytes_written == res.recovered_bytes


# ----------------------------------------------------------------------
# timing structure (the paper's measured effects)
# ----------------------------------------------------------------------


def test_traditional_rebuild_streams_one_disk():
    ctrl = _ctrl(traditional_mirror(5), n_stripes=12)
    res = ctrl.rebuild([2])
    # all reads landed on the single replica disk, mostly sequential
    disk = ctrl.array.sim.disks[5 + 2].model
    assert disk.bytes_read == res.bytes_read
    assert res.read_throughput_mbps == pytest.approx(54.8, rel=0.08)


def test_shifted_rebuild_spreads_over_all_disks():
    ctrl = _ctrl(shifted_mirror(5), n_stripes=12)
    res = ctrl.rebuild([2])
    readers = [
        d for d in range(ctrl.layout.n_disks) if ctrl.array.sim.disks[d].model.bytes_read > 0
    ]
    assert len(readers) == 5
    assert res.read_throughput_mbps > 2.5 * 54.8


def test_shifted_beats_traditional_throughput():
    for n in (3, 5, 7):
        t = _ctrl(traditional_mirror(n), n_stripes=10).rebuild([0])
        s = _ctrl(shifted_mirror(n), n_stripes=10).rebuild([0])
        ratio = s.read_throughput_mbps / t.read_throughput_mbps
        assert 1.3 < ratio < n, (n, ratio)


def test_access_counts_surface_in_result():
    res = _ctrl(shifted_mirror(5)).rebuild([0])
    assert res.max_read_accesses_per_stripe == 1
    res = _ctrl(traditional_mirror(5)).rebuild([0])
    assert res.max_read_accesses_per_stripe == 5


def test_phases_serialize_double_failure():
    """Two failed mirror columns rebuild one after the other: makespan
    is roughly double the single-failure rebuild, not equal to it."""
    single = _ctrl(traditional_mirror_parity(4), n_stripes=10).rebuild([4])
    double = _ctrl(traditional_mirror_parity(4), n_stripes=10).rebuild([4, 5])
    assert double.makespan_s > 1.7 * single.makespan_s


def test_ideal_disks_follow_access_counting():
    """With zero-overhead disks the simulator reduces to the paper's
    abstract model: shifted mirror rebuild time ~ 1/n of traditional."""
    params = DiskParameters.ideal()
    n = 5
    t = _ctrl(traditional_mirror(n), params=params, n_stripes=8).rebuild([0])
    s = _ctrl(shifted_mirror(n), params=params, n_stripes=8).rebuild([0])
    assert t.makespan_s / s.makespan_s == pytest.approx(n, rel=0.15)


def test_throttle_slows_rebuild_proportionally():
    quiet = _ctrl(shifted_mirror(3), n_stripes=10).rebuild([0]).makespan_s
    throttled = _ctrl(shifted_mirror(3), n_stripes=10).rebuild(
        [0], throttle=FixedThrottle(0.1), window=1
    ).makespan_s
    # with window=1 each of the 10 stripes pays the 0.1 s pause
    assert throttled >= quiet + 0.9 * 10 * 0.1


def test_throttled_rebuild_still_verifies():
    res = _ctrl(shifted_mirror_parity(3)).rebuild([0, 4], throttle=FixedThrottle(0.02))
    assert res.verified
