"""Queue disciplines: FIFO, C-SCAN elevator, strict priority."""

from __future__ import annotations

import pytest

from repro.disksim.request import IOKind, IORequest
from repro.disksim.scheduler import ElevatorScheduler, FIFOScheduler, PriorityScheduler


def _req(offset, priority=10):
    return IORequest(0, offset, 10, IOKind.READ, priority=priority)


def test_fifo_preserves_arrival_order():
    s = FIFOScheduler()
    reqs = [_req(o) for o in (50, 10, 30)]
    for r in reqs:
        s.add(r)
    assert [s.pop(0).offset for _ in range(3)] == [50, 10, 30]


def test_pop_empty_raises():
    for s in (FIFOScheduler(), ElevatorScheduler(), PriorityScheduler()):
        with pytest.raises(IndexError):
            s.pop(0)


def test_len_and_bool():
    s = FIFOScheduler()
    assert not s and len(s) == 0
    s.add(_req(0))
    assert s and len(s) == 1


def test_elevator_serves_ascending_from_head():
    s = ElevatorScheduler()
    for o in (50, 10, 30, 70):
        s.add(_req(o))
    # head at 25: ahead = {30, 50, 70}, served ascending, then wrap to 10
    order = [s.pop(25).offset, s.pop(30).offset, s.pop(50).offset, s.pop(70).offset]
    assert order == [30, 50, 70, 10]


def test_elevator_wraps_when_nothing_ahead():
    s = ElevatorScheduler()
    s.add(_req(5))
    s.add(_req(15))
    assert s.pop(100).offset == 5  # wrap-around to lowest


def test_elevator_ties_break_by_request_id():
    s = ElevatorScheduler()
    a, b = _req(10), _req(10)
    s.add(b)
    s.add(a)
    assert s.pop(0).req_id == min(a.req_id, b.req_id)


def test_priority_classes_trump_position():
    s = PriorityScheduler()
    s.add(_req(5, priority=10))
    s.add(_req(500, priority=0))
    # head sits right next to the rebuild request, but the user read wins
    assert s.pop(4).offset == 500


def test_priority_elevator_within_class():
    s = PriorityScheduler()
    for o in (50, 10, 30):
        s.add(_req(o, priority=0))
    assert [s.pop(20).offset, s.pop(30).offset, s.pop(50).offset] == [30, 50, 10]
