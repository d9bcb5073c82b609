"""Event engine: clock, queueing, callbacks, determinism."""

from __future__ import annotations

import pytest

from repro.disksim.disk import DiskParameters
from repro.disksim.events import Simulation
from repro.disksim.request import IOKind, IORequest

_MB = 1024 * 1024


def _sim(n=2, params=None):
    return Simulation(n, params or DiskParameters.ideal())


def test_needs_at_least_one_disk():
    with pytest.raises(ValueError):
        Simulation(0)


def test_submit_to_unknown_disk_rejected():
    sim = _sim(1)
    with pytest.raises(ValueError, match="unknown disk"):
        sim.submit(IORequest(3, 0, 1, IOKind.READ))


def test_single_request_completes_with_timing():
    sim = _sim(1)
    req = IORequest(0, 0, 54 * _MB, IOKind.READ)
    sim.submit(req)
    sim.run()
    assert sim.completed == [req]
    assert req.finish_time > 0
    assert req.finish_time == pytest.approx(54 / 54.8, rel=0.01)


def test_requests_on_one_disk_serialize():
    sim = _sim(1)
    a = IORequest(0, 0, 10 * _MB, IOKind.READ)
    b = IORequest(0, 10 * _MB, 10 * _MB, IOKind.READ)
    sim.submit(a)
    sim.submit(b)
    sim.run()
    assert b.start_time >= a.finish_time


def test_requests_on_distinct_disks_overlap():
    sim = _sim(2)
    a = IORequest(0, 0, 10 * _MB, IOKind.READ)
    b = IORequest(1, 0, 10 * _MB, IOKind.READ)
    sim.submit(a)
    sim.submit(b)
    sim.run()
    assert a.start_time == b.start_time == 0.0
    assert a.finish_time == pytest.approx(b.finish_time)


def test_events_fire_in_time_then_seq_order():
    sim = _sim(1)
    fired = []
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: fired.append("first"))
    sim.schedule(1.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "late"]
    assert sim.now == 2.0


def test_same_time_events_fire_in_scheduling_order():
    """Completions and calls sharing a timestamp fire in the order they
    were scheduled, calls scheduled at that instant after them."""
    sim = _sim(4)
    fired = []
    for disk in (2, 0, 3):
        sim.submit(
            IORequest(disk, 0, 10 * _MB, IOKind.READ),
            callback=lambda r: fired.append(("done", r.disk)),
        )
    finish = sim.disks[2].current.finish_time
    assert sim.disks[0].current.finish_time == finish
    sim.schedule(finish, lambda: fired.append(("call", 0)))

    def at_finish():
        fired.append(("call", 1))
        sim.schedule(0.0, lambda: fired.append(("call", 2)))

    sim.schedule(finish, at_finish)
    sim.run()
    assert fired == [
        ("done", 2), ("done", 0), ("done", 3), ("call", 0), ("call", 1), ("call", 2)
    ]
    assert sim.now == finish


def test_completion_callback_fires_once_with_request():
    sim = _sim(1)
    seen = []
    req = IORequest(0, 0, _MB, IOKind.READ)
    sim.submit(req, callback=seen.append)
    sim.run()
    assert seen == [req]


def test_callback_can_submit_more_work():
    sim = _sim(1)
    order = []

    def chain(req):
        order.append(req.offset)
        if req.offset < 2 * _MB:
            sim.submit(
                IORequest(0, req.offset + _MB, _MB, IOKind.READ), callback=chain
            )

    sim.submit(IORequest(0, 0, _MB, IOKind.READ), callback=chain)
    sim.run()
    assert order == [0, _MB, 2 * _MB]


def test_submit_at_future_time():
    sim = _sim(1)
    req = IORequest(0, 0, _MB, IOKind.READ)
    sim.submit_at(1.5, req)
    sim.run()
    assert req.submit_time == pytest.approx(1.5)
    with pytest.raises(ValueError, match="past"):
        sim.submit_at(0.5, IORequest(0, 0, _MB, IOKind.READ))


def test_schedule_negative_delay_rejected():
    sim = _sim(1)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_pauses_clock():
    sim = _sim(1)
    sim.submit(IORequest(0, 0, 54 * _MB, IOKind.READ))  # ~1 s at 54.8 MB/s ideal? uses ideal params: 54/54.8 s
    t = sim.run(until=0.1)
    assert t == pytest.approx(0.1)
    assert not sim.completed
    sim.run()
    assert len(sim.completed) == 1


def test_run_until_never_moves_clock_backwards():
    """Regression: ``run(until=2.0)`` after the clock reached ~1 s used
    to rewind ``now`` — time must be monotone."""
    sim = _sim(1)
    sim.submit(IORequest(0, 0, 54 * _MB, IOKind.READ))
    t_done = sim.run()  # quiescent near 1 s
    assert t_done > 0.5
    assert sim.run(until=0.2) == t_done
    assert sim.now == t_done


def test_run_until_advances_idle_clock():
    """Regression: ``run(until=9.0)`` with no events left ``now`` at 0
    — an idle engine must still wait out the wall-clock."""
    sim = _sim(1)
    assert sim.run(until=9.0) == pytest.approx(9.0)
    assert sim.now == pytest.approx(9.0)
    # and a later submission is stamped at the advanced clock
    req = IORequest(0, 0, _MB, IOKind.READ)
    sim.submit(req)
    sim.run()
    assert req.submit_time == pytest.approx(9.0)


def test_submit_many_matches_sequential_submits():
    """The batch entry point is pure mechanics: identical schedules,
    service starts and completion order as one ``submit`` per request."""
    def build():
        return [
            IORequest(k % 2, (7 * k % 5) * _MB, _MB, IOKind.READ) for k in range(12)
        ]

    loop_sim, batch_sim = _sim(2), _sim(2)
    loop_reqs, batch_reqs = build(), build()
    for r in loop_reqs:
        loop_sim.submit(r)
    batch_sim.submit_many(batch_reqs)
    loop_sim.run()
    batch_sim.run()
    timings = lambda reqs: [(r.start_time, r.finish_time) for r in reqs]
    assert timings(loop_reqs) == timings(batch_reqs)


def test_submit_many_rejects_unknown_disk_and_fires_callbacks():
    sim = _sim(1)
    with pytest.raises(ValueError, match="unknown disk"):
        sim.submit_many([IORequest(5, 0, _MB, IOKind.READ)])
    seen = []
    reqs = [IORequest(0, k * _MB, _MB, IOKind.READ) for k in range(3)]
    sim.submit_many(reqs, callback=seen.append)
    sim.run()
    assert sorted(r.offset for r in seen) == [0, _MB, 2 * _MB]


def test_pending_count_tracks_in_flight():
    sim = _sim(1)
    sim.submit(IORequest(0, 0, _MB, IOKind.READ))
    sim.submit(IORequest(0, 2 * _MB, _MB, IOKind.READ))
    assert sim.pending_count() == 2
    sim.run()
    assert sim.pending_count() == 0


def test_total_byte_counters():
    sim = _sim(2)
    sim.submit(IORequest(0, 0, 3 * _MB, IOKind.READ))
    sim.submit(IORequest(1, 0, 2 * _MB, IOKind.WRITE))
    sim.run()
    assert sim.total_bytes_read == 3 * _MB
    assert sim.total_bytes_written == 2 * _MB


def test_deterministic_replay():
    def run_once():
        sim = Simulation(3, DiskParameters.savvio_10k3())
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(50):
            sim.submit(
                IORequest(
                    int(rng.integers(0, 3)),
                    int(rng.integers(0, 1000)) * _MB,
                    _MB,
                    IOKind.READ,
                )
            )
        sim.run()
        return [(r.req_id - sim.completed[0].req_id, r.finish_time) for r in sim.completed]

    assert run_once() == run_once()
