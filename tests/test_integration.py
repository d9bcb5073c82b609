"""End-to-end integration: the paper's storyline on one array.

Each test walks a full scenario through the public API — layout,
controller, simulator, content verification — the way a downstream
user would compose the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RotatedStack,
    ShiftedArrangement,
    analysis,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.disksim import PriorityScheduler
from repro.raidsim import OnlineReconstruction, RaidController
from repro.workloads import random_large_writes, user_read_stream


def test_write_fail_rebuild_read_cycle():
    """Write user data, lose two disks, rebuild, and confirm every byte
    — the full lifecycle of the shifted mirror method with parity."""
    ctrl = RaidController(shifted_mirror_parity(4), n_stripes=5, payload_bytes=8)
    rng = np.random.default_rng(11)
    ops = random_large_writes(4, 5, n_ops=30, rng=rng)
    ctrl.run_write_workload(ops, rng=rng)
    assert ctrl.verify_redundancy()

    # remember what user data looks like, then lose a data disk and a
    # mirror disk (the paper's interesting F3 situation)
    snapshot = {
        (s, i, j): ctrl.element_content(s, (i, j)).copy()
        for s in range(5)
        for i in range(4)
        for j in range(4)
    }
    res = ctrl.rebuild([1, 6])
    assert res.verified
    for (s, i, j), want in snapshot.items():
        assert np.array_equal(ctrl.element_content(s, (i, j)), want)


def test_theory_predicts_simulation_on_ideal_disks():
    """The closed-form access ratio of §VI-A appears as a wall-clock
    ratio once mechanical overheads are stripped from the disks."""
    from repro.disksim import DiskParameters

    n = 4
    params = DiskParameters.ideal()
    times = {}
    for name, builder in (
        ("trad", traditional_mirror),
        ("shift", shifted_mirror),
    ):
        ctrl = RaidController(
            builder(n), n_stripes=6, params=params, payload_bytes=8
        )
        times[name] = ctrl.rebuild([0]).makespan_s
    gain = times["trad"] / times["shift"]
    accesses = {
        name: analysis.cost(builder(n), [0]).read_accesses
        for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror))
    }
    assert gain == pytest.approx(accesses["trad"] / accesses["shift"], rel=0.1)


def test_rotated_stack_physical_failure_covers_logical_cases():
    """A physical failure on a rotated stack hits each logical role
    exactly once — and rebuild handles the mixture correctly."""
    lay = shifted_mirror_parity(3)
    ctrl = RaidController(lay, n_stripes=lay.n_disks, rotate=True, payload_bytes=8)
    stack = ctrl.stack
    roles = [stack.logical_disk(s, 2) for s in range(stack.n_stripes)]
    assert sorted(roles) == list(range(lay.n_disks))
    assert ctrl.rebuild([2]).verified


def test_online_reconstruction_story():
    """§III end-to-end: user reads hit the disk under reconstruction;
    the shifted arrangement serves them an order of magnitude faster."""
    stats = {}
    for name, builder in (("trad", traditional_mirror), ("shift", shifted_mirror)):
        ctrl = RaidController(
            builder(5),
            n_stripes=16,
            payload_bytes=8,
            scheduler_factory=PriorityScheduler,
        )
        reads = user_read_stream(5, 16, duration_s=1.5, rate_per_s=12, target_disk=0)
        res = OnlineReconstruction(ctrl, [0], reads).run()
        assert res.rebuild.verified
        stats[name] = res
    assert stats["shift"].mean_user_latency_s < stats["trad"].mean_user_latency_s
    # both rebuilds recovered identical content (same film seed)
    assert stats["shift"].rebuild.recovered_bytes == stats["trad"].rebuild.recovered_bytes


def test_paper_headline_numbers_coexist():
    """One assertion per headline claim of the abstract."""
    n = 5
    # "improves data availability by a factor of n" (mirror)
    trad = analysis.cost(traditional_mirror(n), [0]).read_accesses
    assert trad / analysis.cost(shifted_mirror(n), [0]).read_accesses == n

    # "... or (2n+1)/4" (mirror with parity), averaged over double failures
    def avg_reads(layout):
        cases = layout.all_failure_sets(2)
        total = sum(analysis.cost(layout, f).data_recovery_read_accesses for f in cases)
        return total / len(cases)

    gain = avg_reads(traditional_mirror_parity(n)) / avg_reads(shifted_mirror_parity(n))
    assert gain == pytest.approx(11 / 4)
    # "still enjoying the theoretical optimal write efficiency"
    assert shifted_mirror(n).write_plan([(0, 0)]).num_write_accesses == 1
    assert shifted_mirror_parity(n).large_write_plan(0).num_write_accesses == 1
    # and the arrangement really is the paper's formula
    arr = ShiftedArrangement(n)
    assert arr.mirror_location(2, 4) == ((2 + 4) % n, 2)


def test_stack_definition_from_paper_terms():
    """§II-A: 'the loss of any two physical disks in a stack covers all
    combinations of failure of two logical disks' — with rotation, each
    physical pair sweeps through n_disks distinct logical pairs."""
    lay = traditional_mirror_parity(3)
    stack = RotatedStack(lay)
    cases = {
        tuple(sorted(stack.logical_disk(s, f) for f in (1, 4)))
        for s in range(stack.n_stripes)
    }
    assert len(cases) == stack.n_stripes
