"""``Simulation.pending_count``: an O(1) counter equal to the queue scan.

The engine keeps one counter of accepted, not yet completed requests.
These properties replay random workloads and compare it, at every
completion callback and between runs, with the sum it replaces:
in-service requests plus every disk's queue length.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.array import ElementArray
from repro.disksim.disk import DiskParameters
from repro.disksim.request import IOKind
from repro.disksim.scheduler import ElevatorScheduler, PriorityScheduler

_ELEMENT = 1 << 16


def queued_or_in_service(sim) -> int:
    return sum(s.busy for s in sim.disks) + sum(len(s.scheduler) for s in sim.disks)


def _array(n_disks: int, priority: bool) -> ElementArray:
    return ElementArray(
        n_disks,
        _ELEMENT,
        DiskParameters.savvio_10k3(),
        PriorityScheduler if priority else ElevatorScheduler,
    )


_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 40), st.booleans()), max_size=30
)


@given(
    ops=_ops,
    deferred=st.lists(st.tuples(st.floats(0.0, 0.5), _ops), max_size=3),
    per_event=st.booleans(),
    until=st.one_of(st.none(), st.floats(0.0, 1.0)),
    priority=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_counter_equals_queue_scan(ops, deferred, per_event, until, priority):
    """With and without a callback on every request, ``run(until=)``
    and ``submit_many_at`` batches."""
    arr = _array(4, priority)
    sim = arr.sim
    seen = []

    def check(request) -> None:
        seen.append(request)
        assert sim.pending_count() == queued_or_in_service(sim)

    callback = check if per_event else None

    def requests(batch):
        kinds = (IOKind.READ, IOKind.WRITE)
        return [arr.element_request(d, s, kinds[w]) for d, s, w in batch]

    sim.submit_many(requests(ops), callback)
    assert sim.pending_count() == queued_or_in_service(sim) == len(ops)
    for delay, batch in deferred:
        sim.submit_many_at(delay, requests(batch), callback)
    if until is not None:
        sim.run(until=until)
        assert sim.pending_count() == queued_or_in_service(sim)
    sim.run()
    assert sim.pending_count() == queued_or_in_service(sim) == 0
    if per_event:
        assert len(seen) == len(ops) + sum(len(b) for _, b in deferred)


def test_bad_disk_mid_batch_counts_only_accepted_requests():
    arr = _array(2, False)
    sim = arr.sim
    good = arr.element_request(0, 0, IOKind.READ)
    bad = arr.element_request(0, 1, IOKind.READ)
    bad.disk = 5
    with pytest.raises(ValueError):
        sim.submit_many([good, bad, arr.element_request(1, 0, IOKind.READ)])
    assert sim.pending_count() == queued_or_in_service(sim) == 1
    with pytest.raises(ValueError):
        sim.submit(bad)
    assert sim.pending_count() == 1
    sim.run()
    assert sim.pending_count() == 0
