"""Engine replay across the :class:`repro.parallel.WorkerPool` fork boundary.

A forked worker replaying a workload must produce the completion log,
clock and per-disk busy times the parent produces inline: the sweep
and leaderboard pool tests compare aggregated results, and this is the
check on the raw completion log underneath them.
"""

from __future__ import annotations

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

    ``spec`` is ``(n_disks, scheduler_name, ops, deferred)`` with
    ``ops`` a tuple of ``(disk, slot, is_write, priority)`` and
    ``deferred`` a tuple of ``(delay, disk, slot)`` submitted through
    ``submit_at`` (the calendar's ``OP_CALL`` escape hatch).  Every
    request carries a completion callback, as in every real workload.
    """
    n_disks, scheduler_name, ops, deferred = spec
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
            _noop,
        )
    sim = arr.sim
    for delay, disk, slot in deferred:
        sim.submit_at(delay, arr.element_request(disk, slot, IOKind.READ), _noop)
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


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(jobs=2) as p:
        yield p


@given(spec=workload())
@settings(max_examples=15, deadline=None)
def test_completion_log_survives_fork_boundary(spec, pool):
    """Workers replay the spec in forked processes and the parent
    replays it inline: all three signatures must agree."""
    forked = pool.map(_run_workload, [spec, spec])
    assert forked[0] == forked[1] == _run_workload(spec)
