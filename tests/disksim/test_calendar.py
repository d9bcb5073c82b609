"""Unit tests for the typed event calendar."""

from __future__ import annotations

import numpy as np

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
    assert cal._n_call == 2
    (event,) = cal.pop_batch()
    assert event[2] == OP_CALL
    action, args = cal.take_call(event[1])
    action(*args)
    assert hits == ["a"] and cal._n_call == 1


def test_call_count_tracks_mixed_calendar():
    """``_n_call == 0`` is the engine's precondition for the drain."""
    cal = TypedCalendar()
    cal.push(1.0, 1, OP_COMPLETE, 0)
    assert cal._n_call == 0
    cal.push_call(2.0, 2, print, ())
    assert cal._n_call == 1
    assert len(cal) == 2


def test_drain_completions_sorted_and_empties():
    cal = TypedCalendar()
    cal.push(2.0, 5, OP_COMPLETE, 1)
    cal.push(1.0, 3, OP_COMPLETE, 0)
    cal.push(1.0, 4, OP_COMPLETE, 2)
    times, seqs, disks = cal.drain_completions()
    assert times.tolist() == [1.0, 1.0, 2.0]
    assert seqs.tolist() == [3, 4, 5]
    assert disks.tolist() == [0, 2, 1]
    assert times.dtype == np.float64 and seqs.dtype == np.int64
    assert len(cal) == 0
