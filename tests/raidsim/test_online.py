"""On-line reconstruction: degraded reads, priorities, latency effect."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import (
    RAID5Layout,
    RAID6Layout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
)
from repro.disksim.scheduler import PriorityScheduler
from repro.raidsim.controller import RaidController
from repro.raidsim.reconstruction import OnlineReconstruction, degraded_read_sources
from repro.workloads.generator import UserRead, user_read_stream


def _ctrl(layout, **kw):
    kw.setdefault("n_stripes", 12)
    kw.setdefault("payload_bytes", 8)
    kw.setdefault("scheduler_factory", PriorityScheduler)
    return RaidController(layout, **kw)


# ----------------------------------------------------------------------
# degraded-read source selection
# ----------------------------------------------------------------------


def test_intact_element_reads_primary():
    lay = shifted_mirror(3)
    assert degraded_read_sources(lay, {4}, 0, 0) == [lay.data_cell(0, 0)]


def test_failed_element_reads_replica():
    lay = shifted_mirror(3)
    src = degraded_read_sources(lay, {0}, 0, 1)
    assert src == lay.replica_cells(0, 1)


def test_double_failure_falls_back_to_parity_row():
    lay = shifted_mirror_parity(3)
    i, j = 0, 2
    (rd, _), = lay.replica_cells(i, j)
    src = degraded_read_sources(lay, {0, rd}, i, j)
    assert lay.parity_cell(j) in src
    assert len(src) == 3  # two surviving row elements + parity


def test_raid5_degraded_read_uses_row():
    lay = RAID5Layout(4)
    src = degraded_read_sources(lay, {1}, 1, 2)
    assert (lay.parity_disk, 2) in src
    assert len(src) == 4


def test_raid6_double_failure_reads_everything():
    lay = RAID6Layout(4, "rdp")
    src = degraded_read_sources(lay, {0, lay.p_disk}, 0, 1)
    assert len(src) == (lay.n_disks - 2) * lay.rows


def test_mirror_unrecoverable_raises():
    from repro.core.errors import UnrecoverableFailureError

    lay = shifted_mirror(3)
    (rd, _), = lay.replica_cells(0, 0)
    with pytest.raises(UnrecoverableFailureError):
        degraded_read_sources(lay, {0, rd}, 0, 0)


# ----------------------------------------------------------------------
# the online driver
# ----------------------------------------------------------------------


def test_requires_priority_scheduler():
    ctrl = RaidController(shifted_mirror(3), n_stripes=4, payload_bytes=8)
    with pytest.raises(ValueError, match="PriorityScheduler"):
        OnlineReconstruction(ctrl, [0], [])


def test_online_run_completes_and_verifies():
    ctrl = _ctrl(shifted_mirror(3))
    reads = user_read_stream(3, 12, duration_s=1.0, rate_per_s=10, target_disk=0)
    res = OnlineReconstruction(ctrl, [0], reads).run()
    assert res.rebuild.verified
    assert res.n_user_reads == len(reads)
    assert res.degraded_reads == len(reads)  # all targeted the failed disk
    assert res.mean_user_latency_s > 0
    assert res.p95_user_latency_s >= res.mean_user_latency_s * 0.5


def test_reads_to_intact_disks_are_not_degraded():
    ctrl = _ctrl(shifted_mirror(3))
    reads = [UserRead(0.1, 0, 1, 0), UserRead(0.2, 1, 2, 2)]  # disks 1, 2 intact
    res = OnlineReconstruction(ctrl, [0], reads).run()
    assert res.degraded_reads == 0


def test_shifted_improves_user_latency_over_traditional():
    """The paper's §III motivation, measured: during rebuild, degraded
    user reads suffer far less under the shifted arrangement."""
    latencies = {}
    for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror)):
        ctrl = _ctrl(builder(5), n_stripes=20)
        reads = user_read_stream(5, 20, duration_s=2.0, rate_per_s=15, target_disk=0)
        res = OnlineReconstruction(ctrl, [0], reads).run()
        assert res.rebuild.verified
        latencies[name] = res.mean_user_latency_s
    assert latencies["shift"] < latencies["trad"] / 2


def test_user_reads_preempt_rebuild_io():
    """With priorities, a user read overtakes queued rebuild requests
    on the same disk; its latency stays below a FIFO-queued wait."""
    ctrl = _ctrl(traditional_mirror(3), n_stripes=30)
    # one user read early in the rebuild, targeting the hot replica disk
    reads = [UserRead(0.5, 20, 0, 1)]
    res = OnlineReconstruction(ctrl, [0], reads, window=8).run()
    # without priority it would wait for ~all queued rebuild column reads
    assert res.max_user_latency_s < 1.5


def test_empty_read_stream_reports_nan_latencies():
    """Regression: zero-sample aggregates used to collapse to 0.0."""
    import math

    res = OnlineReconstruction(_ctrl(shifted_mirror(3)), [0], []).run()
    assert res.n_user_reads == 0
    assert math.isnan(res.mean_user_latency_s)
    assert math.isnan(res.p95_user_latency_s)
    assert math.isnan(res.max_user_latency_s)
    # the rebuild itself is unaffected
    assert res.rebuild.verified


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=300, deadline=None)
def test_p95_is_numpy_percentile_bit_for_bit(latencies):
    import numpy as np

    from repro.obs import percentile

    # every percentile the callers take: SLO p50/p99/p999, online p95
    for q in (50, 95, 99, 99.9):
        assert percentile(latencies, q).hex() == float(np.percentile(latencies, q)).hex()
