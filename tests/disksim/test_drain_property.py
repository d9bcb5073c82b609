"""Vectorized drain vs per-event loop equivalence, property-based.

The engine's run loop pops calendar events one same-timestamp batch at
a time; once the pending set is completions only (no callbacks, no
fault hooks, no deferred calls) it hands the rest of the run to the
vectorized :meth:`~repro.disksim.events.Simulation._drain_fast`.  The
drain is an optimisation only: any workload replayed both ways must
produce identical completed sequences, clocks, per-disk busy times and
exported traces — serially and across the
:class:`repro.parallel.WorkerPool` fork boundary.

The per-event loop is forced by attaching a no-op completion callback
to every request, which keeps the drain's precondition false until the
last completion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.array import ElementArray
from repro.disksim.disk import DiskParameters
from repro.disksim.request import IOKind
from repro.disksim.scheduler import (
    ElevatorScheduler,
    FIFOScheduler,
    PriorityScheduler,
)
from repro.parallel import WorkerPool

_SCHEDULERS = {
    "fifo": FIFOScheduler,
    "elevator": ElevatorScheduler,
    "priority": PriorityScheduler,
}

_ELEMENT = 1 << 16


def _noop(request) -> None:
    pass


def _run_workload(spec):
    """Replay one workload spec; module-level so it crosses ``fork``.

    ``spec`` is ``(per_event, n_disks, scheduler_name, ops, deferred)``
    with ``ops`` a tuple of ``(disk, slot, is_write, priority)`` and
    ``deferred`` a tuple of ``(delay, disk, slot)`` submitted through
    ``submit_at`` (the calendar's ``OP_CALL`` escape hatch).
    ``per_event`` attaches the no-op callback that rules out the drain.
    """
    per_event, n_disks, scheduler_name, ops, deferred = spec
    callback = _noop if per_event else None
    arr = ElementArray(
        n_disks,
        _ELEMENT,
        DiskParameters.savvio_10k3(),
        _SCHEDULERS[scheduler_name],
    )
    for disk, slot, is_write, priority in ops:
        arr.submit(
            arr.element_request(
                disk,
                slot,
                IOKind.WRITE if is_write else IOKind.READ,
                priority=priority,
            ),
            callback,
        )
    sim = arr.sim
    for delay, disk, slot in deferred:
        sim.submit_at(delay, arr.element_request(disk, slot, IOKind.READ), callback)
    arr.run()
    return (
        sim.now,
        tuple(
            (r.disk, r.offset, r.size, r.kind.value, r.start_time, r.finish_time)
            for r in sim.completed
        ),
        tuple(server.model.busy_time for server in sim.disks),
    )


@st.composite
def workload(draw):
    n_disks = draw(st.integers(2, 6))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_disks - 1),
                st.integers(0, 24),
                st.booleans(),
                st.sampled_from([0, 10]),
            ),
            min_size=0,
            max_size=120,
        )
    )
    deferred = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 0.05, allow_nan=False),
                st.integers(0, n_disks - 1),
                st.integers(0, 24),
            ),
            min_size=0,
            max_size=8,
        )
    )
    scheduler = draw(st.sampled_from(sorted(_SCHEDULERS)))
    return n_disks, scheduler, tuple(ops), tuple(deferred)


@given(w=workload())
@settings(max_examples=60, deadline=None)
def test_drain_and_per_event_loop_are_bit_identical(w):
    n_disks, scheduler, ops, deferred = w
    per_event = _run_workload((True, n_disks, scheduler, ops, deferred))
    drained = _run_workload((False, n_disks, scheduler, ops, deferred))
    assert per_event == drained


@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
def test_equal_finish_times_across_disks_merge_like_per_event_loop(scheduler):
    """Every disk serves the same stream, so every completion time ties
    across disks: the drain's merge must replay the per-event loop's
    ``(time, seq)`` tie-breaking exactly."""
    rng = np.random.default_rng(3)
    stream = [
        (int(s), bool(w), int(p))
        for s, w, p in zip(
            rng.integers(0, 24, 30), rng.random(30) < 0.3, rng.choice([0, 10], 30)
        )
    ]
    ops = tuple((d, s, w, p) for s, w, p in stream for d in range(4))
    per_event = _run_workload((True, 4, scheduler, ops, ()))
    drained = _run_workload((False, 4, scheduler, ops, ()))
    assert per_event == drained


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(jobs=2) as p:
        yield p


@given(w=workload())
@settings(max_examples=15, deadline=None)
def test_drain_identity_survives_fork_boundary(w, pool):
    """Workers replay the same spec in forked processes; parent replays
    it inline — all four signatures (2 paths x 2 process modes) must
    agree."""
    n_disks, scheduler, ops, deferred = w
    specs = [
        (True, n_disks, scheduler, ops, deferred),
        (False, n_disks, scheduler, ops, deferred),
    ]
    forked = pool.map(_run_workload, specs)
    inline = [_run_workload(spec) for spec in specs]
    assert forked[0] == forked[1] == inline[0] == inline[1]


def _traced_export(per_event: bool, drains: list[int]) -> str:
    from repro.obs import Tracer, chrome_trace

    rng = np.random.default_rng(11)
    tracer = Tracer()
    arr = ElementArray(
        4,
        _ELEMENT,
        DiskParameters.savvio_10k3(),
        ElevatorScheduler,
        tracer=tracer.group("ab"),
    )
    sim = arr.sim
    drain = sim._drain_fast

    def counting_drain() -> int:
        drains.append(1)
        return drain()

    sim._drain_fast = counting_drain
    callback = _noop if per_event else None
    for d, s in zip(rng.integers(0, 4, 300), rng.integers(0, 64, 300)):
        arr.submit(arr.element_request(int(d), int(s), IOKind.READ), callback)
    arr.run()
    return chrome_trace(tracer)


def test_exported_traces_identical_with_and_without_drain():
    """The chrome-trace export is part of the bit-identity contract, and
    the two runs really do take different paths."""
    per_event_drains: list[int] = []
    drained_drains: list[int] = []
    per_event = _traced_export(True, per_event_drains)
    drained = _traced_export(False, drained_drains)
    assert per_event_drains == [] and drained_drains == [1]
    assert per_event == drained
