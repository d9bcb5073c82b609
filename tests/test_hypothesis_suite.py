"""Cross-cutting property-based tests (hypothesis).

These target invariants that span modules — random arrangements through
layouts and plans, random I/O batches through the simulator, random
write workloads through the controller — complementing the per-module
example-based suites.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrangement import PermutationArrangement
from repro.core.layouts import MirrorLayout, shifted_mirror_parity
from repro.core.planner import schedule_rounds
from repro.core.reconstruction import split_into_phases
from repro.core.registry import REGISTRY, build_layout
from repro.disksim.array import ElementArray
from repro.disksim.disk import DiskParameters
from repro.disksim.request import IOKind
from repro.raidsim.controller import RaidController
from repro.workloads.generator import WriteOp, random_large_writes

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def random_arrangement(draw, max_n=5):
    """A uniformly random bijective arrangement."""
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n) for j in range(n)]
    perm = rng.permutation(len(cells))
    mapping = {cells[a]: cells[int(b)] for a, b in enumerate(perm)}
    return PermutationArrangement(n, mapping)


# ----------------------------------------------------------------------
# arrangements -> layouts -> plans
# ----------------------------------------------------------------------


@given(arr=random_arrangement())
@settings(max_examples=40, deadline=None)
def test_any_bijective_arrangement_yields_valid_mirror_plans(arr):
    """Whatever the arrangement, single-disk reconstruction plans are
    internally consistent and recover each lost element exactly once."""
    layout = MirrorLayout(arr.n, arr)
    for f in range(layout.n_disks):
        plan = layout.reconstruction_plan([f])
        plan.validate(layout.n_disks, layout.rows)
        targets = [s.target for s in plan.steps]
        assert sorted(targets) == [(f, r) for r in range(layout.rows)]


@given(arr=random_arrangement())
@settings(max_examples=40, deadline=None)
def test_access_count_equals_replica_concentration(arr):
    """The plan's access count for a failed data disk equals the max
    number of its replicas co-located on one mirror disk — the quantity
    the paper minimises."""
    layout = MirrorLayout(arr.n, arr)
    for x in range(arr.n):
        disks = arr.replica_disks_of_data_disk(x)
        concentration = max(disks.count(d) for d in set(disks))
        assert layout.reconstruction_plan([x]).num_read_accesses == concentration


@given(arr=random_arrangement(max_n=4))
@settings(max_examples=25, deadline=None)
def test_any_arrangement_rebuild_verifies_bytes(arr):
    """The controller recovers correct content under any arrangement."""
    ctrl = RaidController(MirrorLayout(arr.n, arr), n_stripes=2, payload_bytes=4)
    for f in (0, arr.n):  # one data disk, one mirror disk
        ctrl2 = RaidController(MirrorLayout(arr.n, arr), n_stripes=2, payload_bytes=4)
        assert ctrl2.rebuild([f]).verified


@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_parity_double_failure_phase_split_conserves_reads(n, seed):
    rng = np.random.default_rng(seed)
    layout = shifted_mirror_parity(n)
    failed = tuple(sorted(rng.choice(layout.n_disks, size=2, replace=False).tolist()))
    plan = layout.reconstruction_plan(failed)
    phases = split_into_phases(plan)
    phase_reads = {
        (d, r) for p in phases for d, rows in p.reads.items() for r in rows
    }
    plan_reads = {(d, r) for d, rows in plan.reads.items() for r in rows}
    assert phase_reads == plan_reads
    assert [p.failed_disk for p in phases] == list(plan.failed_disks)


# ----------------------------------------------------------------------
# round packing
# ----------------------------------------------------------------------


@given(
    queues=st.dictionaries(
        st.integers(0, 8),
        st.lists(st.integers(0, 30), min_size=0, max_size=6, unique=True),
        max_size=6,
    )
)
@settings(max_examples=60)
def test_round_packing_properties(queues):
    rounds = schedule_rounds(queues)
    expected = max((len(v) for v in queues.values()), default=0)
    assert len(rounds) == expected
    flat = [op for batch in rounds for op in batch]
    want = [(d, r) for d, rows in queues.items() for r in rows]
    assert sorted(flat) == sorted(want)
    for batch in rounds:
        disks = [d for d, _ in batch]
        assert len(disks) == len(set(disks))


# ----------------------------------------------------------------------
# simulator conservation laws
# ----------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**31),
    n_disks=st.integers(1, 5),
    n_ops=st.integers(1, 40),
)
@settings(max_examples=30, deadline=None)
def test_simulator_conservation(seed, n_disks, n_ops):
    rng = np.random.default_rng(seed)
    arr = ElementArray(n_disks, 4 * 1024 * 1024, DiskParameters.savvio_10k3())
    ops = [
        (int(rng.integers(0, n_disks)), int(rng.integers(0, 64)))
        for _ in range(n_ops)
    ]
    kinds = [IOKind.READ if rng.random() < 0.5 else IOKind.WRITE for _ in ops]
    for (d, s), kind in zip(ops, kinds):
        arr.submit(arr.element_request(d, s, kind))
    arr.run()
    stats = arr.stats()
    # every submitted byte is accounted exactly once
    assert stats.bytes_read + stats.bytes_written == n_ops * arr.element_size
    # no disk is busy longer than the run; total busy <= disks * makespan
    assert all(b <= stats.makespan_s + 1e-9 for b in stats.per_disk_busy_s.values())
    assert sum(stats.per_disk_busy_s.values()) <= n_disks * stats.makespan_s + 1e-9
    # the makespan is at least the busiest disk
    assert stats.makespan_s >= max(stats.per_disk_busy_s.values()) - 1e-9
    # latencies are bounded by the makespan
    assert stats.max_latency_s <= stats.makespan_s + 1e-9


def _registry_sizes() -> list[tuple[str, int]]:
    """Every registry layout at every data-disk count 2..7 it accepts."""
    sizes = []
    for name, spec in REGISTRY.items():
        for n in range(spec.min_n, 8):
            try:
                spec.builder(n)
            except ValueError:
                continue
            sizes.append((name, n))
    return sizes


@given(
    seed=st.integers(0, 2**31),
    layout=st.sampled_from(_registry_sizes()),
    rotate=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_write_workload_always_preserves_redundancy(seed, layout, rotate):
    """Every write plan covers every cell whose bytes the write changes:
    the controller stores only the plan's cells, so a missed cell shows
    up as broken redundancy."""
    rng = np.random.default_rng(seed)
    lay = build_layout(*layout)
    ctrl = RaidController(lay, n_stripes=3, payload_bytes=4, rotate=rotate)
    ops = random_large_writes(lay.n, 3, n_ops=6, rng=rng, rows=lay.data_rows)
    for _ in range(4):  # scattered sub-row ops over any rows
        k = int(rng.integers(1, lay.n))
        picks = rng.choice(lay.n * lay.data_rows, size=k, replace=False)
        cells = tuple((int(e) % lay.n, int(e) // lay.n) for e in picks)
        ops.append(WriteOp(int(rng.integers(0, 3)), cells))
    strategy = "rmw" if rng.random() < 0.5 else "reconstruct"
    ctrl.run_write_workload(ops, strategy=strategy, window=int(rng.integers(1, 4)), rng=rng)
    assert ctrl.verify_redundancy()


# ----------------------------------------------------------------------
# fault replay determinism (serial and across the fork boundary)
# ----------------------------------------------------------------------


def _plan_fault_events(args) -> tuple:
    """Worker fn: one rebuild under a seeded storm, distilled to events.

    The tuple is the plan's observable *fault event sequence*: the
    makespan plus every robustness counter — if any RNG stream leaked
    or reordered between activations, something here moves.
    """
    n, seed, transient_rate, lse_burst, fail_slow_mult = args
    from dataclasses import asdict

    from repro.core.registry import LAYOUTS
    from repro.raidsim.campaign import default_fault_plan
    from repro.raidsim.controller import RetryPolicy

    layout = LAYOUTS["mirror"](n)
    plan = default_fault_plan(
        layout.n_disks,
        seed=seed,
        transient_rate=transient_rate,
        lse_burst=lse_burst,
        fail_slow_multiplier=fail_slow_mult,
        second_failure_time_s=None,
    )
    ctrl = RaidController(
        layout,
        n_stripes=3,
        payload_bytes=4,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.01, jitter=0.5),
    )
    res = ctrl.rebuild([0])
    return (res.makespan_s, asdict(ctrl.fault_stats))


def _schedule_wire(args) -> dict:
    """Worker fn: a nemesis schedule's full wire form."""
    n_disks, horizon_s, seed = args
    from repro.nemesis import build_schedule

    return build_schedule(n_disks, horizon_s, seed=seed).to_dict()


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 4),
    rate=st.floats(0.0, 0.5),
    lse=st.integers(0, 6),
    mult=st.floats(1.0, 8.0),
)
@settings(max_examples=12, deadline=None)
def test_fault_plan_replays_identically_when_activated_twice(
    seed, n, rate, lse, mult
):
    args = (n, seed, rate, lse, mult)
    assert _plan_fault_events(args) == _plan_fault_events(args)


@given(seed=st.integers(0, 2**31), n_disks=st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_nemesis_schedule_replays_identically_when_drawn_twice(seed, n_disks):
    args = (n_disks, 3 * 86_400.0, seed)
    assert _schedule_wire(args) == _schedule_wire(args)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=3, deadline=None)
def test_fault_replay_is_identical_across_the_worker_pool_boundary(seed):
    """Forked workers reproduce the parent's exact fault event sequence."""
    from repro.parallel import WorkerPool

    plan_args = (3, seed, 0.3, 4, 4.0)
    sched_args = (6, 86_400.0, seed)
    with WorkerPool(jobs=2) as pool:
        remote_plans = pool.map(_plan_fault_events, [plan_args, plan_args])
        remote_sched = pool.map(_schedule_wire, [sched_args])
    assert remote_plans[0] == remote_plans[1] == _plan_fault_events(plan_args)
    assert remote_sched[0] == _schedule_wire(sched_args)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_write_then_fail_then_rebuild_roundtrip(seed):
    """The full lifecycle holds for random workloads and failures."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    ctrl = RaidController(shifted_mirror_parity(n), n_stripes=3, payload_bytes=4)
    ops = random_large_writes(n, 3, n_ops=8, rng=rng)
    ctrl.run_write_workload(ops, rng=rng)
    failed = sorted(rng.choice(ctrl.layout.n_disks, size=2, replace=False).tolist())
    res = ctrl.rebuild(failed)
    assert res.verified
    assert ctrl.verify_redundancy()


def _openloop_wire(args) -> tuple:
    """Worker fn: an open-loop arrival stream plus its SLO summary wire form."""
    from dataclasses import astuple

    from repro.obs import MetricsRegistry
    from repro.workloads.openloop import (
        DiurnalCurve,
        SLOAccountant,
        TenantSpec,
        open_arrivals,
    )

    n, duration_s, seed, amplitude = args
    tenants = (
        TenantSpec("vod", 25.0, zipf_s=1.1),
        TenantSpec("burst", 8.0, process="bursty"),
    )
    diurnal = DiurnalCurve(amplitude, duration_s) if amplitude > 0 else None
    reads = open_arrivals(n, 6, duration_s, tenants, diurnal=diurnal, seed=seed)
    acc = SLOAccountant(deadline_s=0.05, registry=MetricsRegistry())
    # a deterministic pseudo-service: latency derived from the arrival
    # stream itself, so the summary exercises the whole accounting path
    for k, r in enumerate(reads):
        acc.record((r.time % 0.09) + 0.001 * (k % 7), tenant=r.tenant)
    return tuple(astuple(r) for r in reads), astuple(acc.summary(duration_s))


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 5),
    amplitude=st.floats(0.0, 0.9),
)
@settings(max_examples=10, deadline=None)
def test_open_loop_arrivals_replay_identically(seed, n, amplitude):
    args = (n, 5.0, seed, amplitude)
    assert _openloop_wire(args) == _openloop_wire(args)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=3, deadline=None)
def test_open_loop_streams_are_identical_across_the_worker_pool_boundary(seed):
    """Forked workers produce bit-identical arrivals and SLO summaries."""
    from repro.parallel import WorkerPool

    args = (4, 5.0, seed, 0.5)
    with WorkerPool(jobs=2) as pool:
        remote = pool.map(_openloop_wire, [args, args])
    assert remote[0] == remote[1] == _openloop_wire(args)
