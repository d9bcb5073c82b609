"""Unit tests for the typed event calendar."""

from __future__ import annotations

from repro.disksim.calendar import OP_CALL, OP_COMPLETE, TypedCalendar


def test_push_orders_by_time_then_seq():
    cal = TypedCalendar()
    cal.push(2.0, 3, OP_COMPLETE, 7)
    cal.push(1.0, 2, OP_COMPLETE, 5)
    cal.push(1.0, 1, OP_COMPLETE, 4)
    batch = cal.pop_batch()
    assert [(t, s, a0) for t, s, _op, a0 in batch] == [(1.0, 1, 4), (1.0, 2, 5)]
    assert cal.pop_batch() == [(2.0, 3, OP_COMPLETE, 7)]
    assert cal.pop_batch() == []
    assert len(cal) == 0


def test_pop_batch_returns_whole_timestamp_group_in_seq_order():
    cal = TypedCalendar()
    for seq in (9, 4, 6, 5):
        cal.push(3.5, seq, OP_COMPLETE, seq * 10)
    batch = cal.pop_batch()
    assert [s for _t, s, _op, _a0 in batch] == [4, 5, 6, 9]
    assert len(cal) == 0


def test_call_side_table_roundtrip():
    cal = TypedCalendar()
    hits = []
    cal.push_call(1.0, 1, hits.append, ("a",))
    cal.push_call(2.0, 2, hits.append, ("b",))
    (event,) = cal.pop_batch()
    assert event[2] == OP_CALL
    action, args = cal.take_call(event[1])
    action(*args)
    assert hits == ["a"] and cal.n_taken == 1


def test_call_count_tracks_mixed_calendar():
    """``n_taken`` counts claimed calls only, never completions."""
    cal = TypedCalendar()
    cal.push(1.0, 1, OP_COMPLETE, 0)
    cal.push_call(2.0, 2, print, ())
    assert len(cal) == 2
    assert cal.pop_batch() == [(1.0, 1, OP_COMPLETE, 0)]
    assert cal.n_taken == 0
    (event,) = cal.pop_batch()
    cal.take_call(event[1])
    assert cal.n_taken == 1 and len(cal) == 0
