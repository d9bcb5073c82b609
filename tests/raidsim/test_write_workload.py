"""Write workload execution: dependencies, content updates, throughput."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layouts import (
    RAID5Layout,
    RAID6Layout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.disksim.request import IOKind
from repro.raidsim.controller import RaidController
from repro.workloads.generator import WriteOp, random_large_writes


def _ctrl(layout, **kw):
    kw.setdefault("n_stripes", 4)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, **kw)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: traditional_mirror(3),
        lambda: shifted_mirror(3),
        lambda: traditional_mirror_parity(3),
        lambda: shifted_mirror_parity(3),
        lambda: RAID5Layout(3),
        lambda: RAID6Layout(3, "rdp"),
    ],
)
def test_workload_preserves_redundancy(factory):
    ctrl = _ctrl(factory())
    rng = np.random.default_rng(1)
    ops = random_large_writes(3, 4, n_ops=25, rng=rng)
    res = ctrl.run_write_workload(ops, rng=rng)
    assert res.n_ops == 25
    assert res.write_throughput_mbps > 0
    assert ctrl.verify_redundancy()


def test_written_data_lands_in_store():
    ctrl = _ctrl(shifted_mirror(3))
    rng = np.random.default_rng(2)
    op = WriteOp(1, ((0, 0), (1, 0)))
    before = ctrl.element_content(1, (0, 0)).copy()
    ctrl.run_write_workload([op], rng=rng)
    after = ctrl.element_content(1, (0, 0))
    assert not np.array_equal(before, after)


def test_mirror_write_has_no_reads():
    ctrl = _ctrl(shifted_mirror(3))
    ctrl.run_write_workload([WriteOp(0, ((0, 0),))])
    assert ctrl.array.sim.total_bytes_read == 0


def test_partial_row_rmw_reads_before_writes():
    ctrl = _ctrl(shifted_mirror_parity(3))
    ctrl.run_write_workload([WriteOp(0, ((0, 0),))], strategy="rmw")
    reads = [r for r in ctrl.array.sim.completed if r.kind is IOKind.READ]
    writes = [r for r in ctrl.array.sim.completed if r.kind is IOKind.WRITE]
    assert reads and writes
    assert max(r.finish_time for r in reads) <= min(w.start_time for w in writes)


def test_full_row_write_skips_reads():
    ctrl = _ctrl(shifted_mirror_parity(3))
    ctrl.run_write_workload([WriteOp(0, tuple((i, 1) for i in range(3)))])
    assert ctrl.array.sim.total_bytes_read == 0


def test_reconstruct_strategy_also_preserves_parity():
    ctrl = _ctrl(shifted_mirror_parity(3))
    rng = np.random.default_rng(3)
    ops = random_large_writes(3, 4, n_ops=15, rng=rng)
    ctrl.run_write_workload(ops, strategy="reconstruct", rng=rng)
    assert ctrl.verify_redundancy()


def test_user_bytes_counts_data_not_redundancy():
    ctrl = _ctrl(shifted_mirror(3))
    res = ctrl.run_write_workload([WriteOp(0, ((0, 0), (1, 0)))])
    assert res.user_bytes == 2 * ctrl.array.element_size
    # physical writes include the replicas
    assert res.bytes_written == 4 * ctrl.array.element_size


def test_windowed_pipeline_faster_than_serial():
    rng = np.random.default_rng(4)
    ops = random_large_writes(3, 4, n_ops=30, rng=rng)
    serial = _ctrl(shifted_mirror(3)).run_write_workload(list(ops), window=1)
    piped = _ctrl(shifted_mirror(3)).run_write_workload(list(ops), window=6)
    assert piped.makespan_s < serial.makespan_s


def test_traditional_and_shifted_write_throughput_close():
    """Fig. 10's claim: 'about the same to a large extent'."""
    rng_seed = 5
    results = {}
    for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror)):
        ctrl = _ctrl(builder(5), n_stripes=6)
        rng = np.random.default_rng(rng_seed)
        ops = random_large_writes(5, 6, n_ops=60, rng=rng)
        results[name] = ctrl.run_write_workload(ops, rng=rng).write_throughput_mbps
    ratio = results["shift"] / results["trad"]
    assert 0.85 < ratio <= 1.05


def _read_makespan(ctrl, reads, from_replica: bool = False) -> float:
    """Serve healthy single-element ``(stripe, i, j)`` reads, eight at a
    time, from the primary or the first replica copy; seconds taken."""
    lay = ctrl.layout
    pending = list(reads)

    def start_read() -> None:
        stripe, i, j = pending.pop(0)
        cell = lay.replica_cells(i, j)[0] if from_replica else lay.data_cell(i, j)
        ctrl.array.submit_elements(
            [ctrl.place(stripe, cell)], IOKind.READ, tag="user-read",
            on_complete=lambda: pending and start_read(),
        )

    for _ in range(min(8, len(pending))):
        start_read()
    ctrl.array.run()
    return ctrl.array.now


def test_healthy_read_path_identical_across_arrangements():
    """The shifted arrangement must not tax the healthy read path: the
    primary copies live in the (unchanged) data array."""
    import numpy as np

    from repro.core.layouts import shifted_mirror, traditional_mirror

    rng = np.random.default_rng(17)
    reads = [
        (int(rng.integers(0, 6)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
        for _ in range(60)
    ]
    times = {}
    for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror)):
        ctrl = RaidController(builder(5), n_stripes=6, payload_bytes=8)
        times[name] = _read_makespan(ctrl, reads)
        assert len(ctrl.array.sim.completed) == len(reads)
    assert times["shift"] == pytest.approx(times["trad"], rel=1e-9)


def test_replica_reads_equally_fast_under_both_arrangements():
    """Reading from the mirror array: the shifted layout scatters the
    replicas but each disk carries the same per-disk load, so a random
    read stream performs comparably."""
    import numpy as np

    from repro.core.layouts import shifted_mirror, traditional_mirror

    rng = np.random.default_rng(23)
    reads = [
        (int(rng.integers(0, 6)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
        for _ in range(60)
    ]
    times = {}
    for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror)):
        ctrl = RaidController(builder(5), n_stripes=6, payload_bytes=8)
        times[name] = _read_makespan(ctrl, reads, from_replica=True)
    assert abs(times["shift"] - times["trad"]) / times["trad"] < 0.2
