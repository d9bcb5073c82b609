"""``Simulation.schedule_stream`` pops exactly as one ``schedule_call`` per item.

A stream reserves one ``seq`` per item and keeps only its next item on
the calendar.  The contract under test: mixed with ``schedule_call``
events at identical times, completions and ``run(until=)`` splits, a
stream gives the same pop order, clock and ``sim.events_dispatched`` as
``schedule_call(max(0.0, t - now), action, k)`` issued for every item
at the moment the stream is scheduled.  The cases include two items at
one instant, items at exactly a completion's finish time (the
completion pushed after the stream was scheduled, so only the reserved
``seq`` orders the item first), and a time before ``now``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.disk import DiskParameters
from repro.disksim.events import Simulation
from repro.disksim.request import IOKind, IORequest
from repro.obs import scoped_registry, set_obs_enabled

_MB = 1024 * 1024


def _drive(case, stream: bool):
    """Run one scenario; returns the pop log, the clock and the dispatch count.

    ``case`` holds ``start`` (the clock the stream is scheduled at),
    ``times`` (the items' times), ``calls`` (``(time, before)`` pairs:
    one ``schedule_call`` each, issued before or after the stream),
    ``submits`` (the items whose action submits a request to disk
    ``k % 2``) and ``split`` (a ``run(until=)`` point, or ``None``).
    """
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            sim = Simulation(2, DiskParameters.ideal())
            log = []

            def done(req):
                log.append(("done", req.disk, sim.now))

            def item(k):
                log.append(("item", k, sim.now))
                if k in case["submits"]:
                    sim.submit(IORequest(k % 2, 0, _MB, IOKind.READ), done)

            def call(c):
                log.append(("call", c, sim.now))

            # a request in flight from the start, and a clock moved on
            sim.submit(IORequest(0, 0, 4 * _MB, IOKind.READ), done)
            sim.run(until=case["start"])
            calls = case["calls"]
            for c, (t, before) in enumerate(calls):
                if before:
                    sim.schedule_call(max(0.0, t - sim.now), call, c)
            if stream:
                sim.schedule_stream(case["times"], item)
            else:
                for k, t in enumerate(case["times"]):
                    sim.schedule_call(max(0.0, t - sim.now), item, k)
            for c, (t, before) in enumerate(calls):
                if not before:
                    sim.schedule_call(max(0.0, t - sim.now), call, c)
            if case["split"] is not None:
                sim.run(until=case["split"])
                log.append(("split", None, sim.now))
            sim.run()
            dispatched = reg.snapshot()["counters"]["sim.events_dispatched"]
            return log, sim.now, dispatched
    finally:
        set_obs_enabled(old)


def _first_finish(case) -> float:
    """Finish time of the request the first submitting item starts."""
    log, _, _ = _drive(case, stream=False)
    first = min(case["submits"])
    at = next(t for kind, k, t in log if kind == "item" and k == first)
    return next(t for kind, d, t in log if kind == "done" and t > at and d == first % 2)


def test_named_cases_pop_as_one_call_per_item():
    case = {
        "start": 0.01,
        "times": [0.005, 0.02, 0.02, 0.03, 0.5],
        "calls": [(0.02, True), (0.02, False), (0.03, False)],
        "submits": {1},
        "split": 0.025,
    }
    finish = _first_finish(case)
    assert 0.03 < finish < 0.5
    # two more items at exactly that finish time: the completion is
    # pushed after the stream and the calls were scheduled, so it pops
    # after all three
    case["times"] = sorted(case["times"] + [finish, finish])
    case["calls"].append((finish, False))
    eager = _drive(case, stream=False)
    assert eager == _drive(case, stream=True)
    log = eager[0]
    at_finish = [entry[0] for entry in log if entry[-1] == finish]
    assert at_finish == ["item", "item", "call", "done"]
    # the time before now fires at once, ahead of everything else
    assert log[0] == ("item", 0, 0.01)


def test_stream_times_must_not_decrease():
    sim = Simulation(1, DiskParameters.ideal())
    with pytest.raises(ValueError, match="must not decrease"):
        sim.schedule_stream([0.2, 0.1], lambda k: None)
    sim.schedule_stream([], lambda k: None)
    assert sim.run() == 0.0


def test_times_before_now_clamp_and_keep_order():
    sim = Simulation(1, DiskParameters.ideal())
    sim.run(until=1.0)
    fired = []
    sim.schedule_stream([0.1, 0.5, 1.0, 2.0], lambda k: fired.append((k, sim.now)))
    sim.run()
    assert fired == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 2.0)]


_GRID = st.sampled_from([0.0, 0.01, 0.02, 0.025, 0.05, 0.1])


@st.composite
def _cases(draw):
    times = sorted(draw(st.lists(_GRID, min_size=1, max_size=8)))
    n = len(times)
    return {
        "start": draw(st.sampled_from([0.0, 0.01, 0.03])),
        "times": times,
        "calls": draw(st.lists(st.tuples(_GRID, st.booleans()), max_size=5)),
        "submits": set(draw(st.lists(st.integers(0, n - 1), max_size=n))),
        "split": draw(st.one_of(st.none(), _GRID)),
        "tie": draw(st.booleans()),
    }


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_stream_pops_as_one_call_per_item(case):
    if case["tie"] and case["submits"]:
        # put two items at a completion the stream's own items caused
        finish = _first_finish(case)
        case["times"] = sorted(case["times"] + [finish, finish])
    assert _drive(case, stream=True) == _drive(case, stream=False)
