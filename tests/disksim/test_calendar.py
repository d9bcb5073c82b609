"""Unit tests for the typed event calendar.

The engine pushes completions onto the calendar's heap and pops every
event from it with :mod:`heapq`; the order those events fire in is
checked on the engine (``tests/disksim/test_events.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.disksim.calendar import OP_CALL, OP_COMPLETE, TypedCalendar


def test_call_side_table_roundtrip():
    cal = TypedCalendar()
    hits = []
    cal.push_call(1.0, 1, hits.append, ("a",))
    cal.push_call(2.0, 2, hits.append, ("b",))
    event = heappop(cal._heap)
    assert event == (1.0, 1, OP_CALL, 0)
    action, args = cal.take_call(event[1])
    action(*args)
    assert hits == ["a"] and cal.n_taken == 1


def test_call_count_tracks_mixed_calendar():
    """``n_taken`` counts claimed calls only, never completions."""
    cal = TypedCalendar()
    heappush(cal._heap, (1.0, 1, OP_COMPLETE, 0))
    cal.push_call(2.0, 2, print, ())
    assert len(cal) == 2
    assert heappop(cal._heap) == (1.0, 1, OP_COMPLETE, 0)
    assert cal.n_taken == 0
    event = heappop(cal._heap)
    cal.take_call(event[1])
    assert cal.n_taken == 1 and len(cal) == 0
