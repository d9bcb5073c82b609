"""Single-op submissions and the folded ``array.*`` instruments.

A one-op :meth:`ElementArray.submit_elements` call skips the coalescer
and submits its one request straight to the engine.  The contract under
test is that nothing observable tells the two paths apart: request
fields, ``req_id`` order, the op mapping, the completion log, callback
order, ``pending_count`` and the ``array.*`` instruments all equal what
the general coalescer leaves.  The instruments themselves are folded
from a per-array submission log at every ``Simulation.run`` exit; they
must equal per-submission updates at each of those points, whatever
mix of batch sizes and however the runs are split or nested.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim import array as array_mod
from repro.disksim.array import ElementArray
from repro.disksim.disk import DiskParameters
from repro.disksim.request import IOKind
from repro.obs import MetricsRegistry, scoped_registry, set_obs_enabled

_MB = 1024 * 1024
_ELEM = 4 * _MB
_N_DISKS = 4


def _array() -> ElementArray:
    return ElementArray(_N_DISKS, _ELEM, DiskParameters.savvio_10k3())


def _array_state(snap: dict) -> dict:
    """The ``array.*`` part of a registry snapshot."""
    return {
        kind: {k: v for k, v in snap[kind].items() if k.startswith("array.")}
        for kind in ("counters", "histograms")
    }


def _observed(drive):
    """Run ``drive()`` with observability on, under a fresh registry."""
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            out = drive()
            return out, reg.snapshot()
    finally:
        set_obs_enabled(old)


# ----------------------------------------------------------------------
# the bypass equals the general coalescer
# ----------------------------------------------------------------------

_op = st.tuples(st.integers(0, _N_DISKS - 1), st.integers(0, 40))
_step = st.tuples(
    st.lists(_op, min_size=0, max_size=4),
    st.sampled_from([IOKind.READ, IOKind.WRITE]),
    st.integers(0, 10),
    st.sampled_from(["callback", "on_complete", "both", "none"]),
    st.floats(0.0, 0.05),
)


def _drive(script, general: bool):
    """Replay ``script``; singles go through the bypass unless ``general``.

    Returns everything a caller can observe, with ``req_id`` replaced
    by its rank among the run's ids (ids come from a process-wide
    counter, so only their order is comparable across runs).
    """
    arr = _array()
    submitted = []  # per step: (requests, op_requests, pending after)
    fired = []  # callback and on_complete events, in firing order
    for k, (ops, kind, priority, hooks, gap) in enumerate(script):
        callback = on_complete = None
        if hooks in ("callback", "both"):
            callback = lambda req: fired.append(("cb", req.req_id))  # noqa: E731
        if hooks in ("on_complete", "both"):
            on_complete = lambda k=k: fired.append(("done", k))  # noqa: E731
        kwargs = dict(
            priority=priority, tag=f"s{k}", callback=callback, on_complete=on_complete
        )
        if general:
            sub = arr.submit_batch([d for d, _ in ops], [s for _, s in ops], kind, **kwargs)
        else:
            sub = arr.submit_elements(ops, kind, **kwargs)
        submitted.append((list(sub), sub.op_requests(), arr.sim.pending_count()))
        arr.run(until=arr.now + gap)
    arr.run()
    ids = sorted(
        {r.req_id for reqs, _, _ in submitted for r in reqs}
        | {r.req_id for r in arr.sim.completed}
    )
    rank = {rid: n for n, rid in enumerate(ids)}

    def fields(r):
        return (
            r.disk, r.offset, r.size, r.kind, r.priority, r.tag, rank[r.req_id],
            r.submit_time, r.start_time, r.finish_time, r.error, r.attempt,
        )

    return (
        [
            ([fields(r) for r in reqs], [fields(r) for r in op_reqs], pending)
            for reqs, op_reqs, pending in submitted
        ],
        [fields(r) for r in arr.sim.completed],
        [(what, rank[x] if what == "cb" else x) for what, x in fired],
        arr.sim.pending_count(),
    )


@settings(max_examples=40, deadline=None)
@given(script=st.lists(_step, min_size=1, max_size=20))
def test_single_op_submission_equals_the_general_coalescer(script):
    bypass, bypass_snap = _observed(lambda: _drive(script, general=False))
    general, general_snap = _observed(lambda: _drive(script, general=True))
    assert bypass == general
    assert _array_state(bypass_snap) == _array_state(general_snap)


def test_single_op_returns_a_one_request_submission():
    arr = _array()
    sub = arr.submit_elements(iter([(2, 5)]), IOKind.READ, priority=0, tag="user")
    assert len(sub) == 1
    (req,) = sub
    assert sub.op_requests() == [req]
    assert (req.disk, req.offset, req.size, req.priority, req.tag) == (
        2, 5 * _ELEM, _ELEM, 0, "user",
    )
    assert arr.sim.pending_count() == 1
    arr.run()
    assert arr.sim.completed == [req]
    assert arr.sim.pending_count() == 0


@pytest.mark.parametrize("general", [False, True], ids=["bypass", "general"])
def test_negative_slot_raises_and_submits_nothing(general):
    def drive():
        arr = _array()
        with pytest.raises(ValueError, match="bad element range"):
            if general:
                arr.submit_batch([1], [-1], IOKind.READ)
            else:
                arr.submit_elements([(1, -1)], IOKind.READ)
        assert arr.sim.pending_count() == 0
        arr.run()
        assert arr.sim.completed == []

    _, snap = _observed(drive)
    # a rejected op never reaches the submission log
    assert snap["counters"]["array.batch_path"]["values"] == []
    assert snap["counters"]["array.batch_ops"]["values"] == []


#: refused batches: one bad op, a good op then a bad one, a bad one first
_REFUSED = ([(_N_DISKS, 0)], [(0, 3), (_N_DISKS, 0)], [(-1, 2), (1, 2)])


def _refused_state(general: bool, bad_batch) -> dict:
    def drive():
        arr = _array()
        arr.submit_elements([(0, 0)], IOKind.READ)
        with pytest.raises(ValueError, match="unknown disk"):
            if general:
                arr.submit_batch([d for d, _ in bad_batch], [s for _, s in bad_batch], IOKind.READ)
            else:
                arr.submit_elements(bad_batch, IOKind.READ)
        # nothing of the refused batch reached the engine or the log
        assert arr.sim.pending_count() == 1
        assert len(arr.sim._cal) == 1
        assert len(arr._obs.log) == 1
        arr.run()
        assert len(arr.sim.completed) == 1
        assert arr.sim.pending_count() == 0

    _, snap = _observed(drive)
    return _array_state(snap)


def test_unknown_disk_raises_and_leaves_pending_unchanged():
    for bad_batch in _REFUSED:
        for general in (False, True):
            state = _refused_state(general, bad_batch)
            # only the one good op counts: the refused batch is absent
            assert state["counters"]["array.batch_ops"]["values"][0]["value"] == 1.0
            paths = state["counters"]["array.batch_path"]["values"]
            assert [e["value"] for e in paths] == [1.0]
            assert state["histograms"]["array.coalesce_ratio"]["values"][0]["count"] == 1


@pytest.mark.parametrize("with_callback", [False, True])
def test_on_complete_fires_exactly_once(with_callback):
    arr = _array()
    seen = []
    done = []
    arr.submit_elements(
        [(3, 7)],
        IOKind.READ,
        callback=seen.append if with_callback else None,
        on_complete=lambda: done.append(arr.now),
    )
    assert done == []
    arr.run()
    assert len(done) == 1
    assert done[0] == arr.sim.completed[0].finish_time
    assert seen == (arr.sim.completed if with_callback else [])
    arr.run()
    assert len(done) == 1


# ----------------------------------------------------------------------
# array.* folded at run exit == per-submission updates
# ----------------------------------------------------------------------


class _Reference:
    """Per-submission ``array.*`` updates, as the instruments once took them."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry
        self.ratio = reg.histogram(
            "array.coalesce_ratio",
            "submitted ops per coalesced request, per batch",
            buckets=array_mod._ArrayObs._RATIO_BUCKETS,
        ).labels()
        self.batches = reg.counter(
            "array.batch_path", "batches submitted through the coalescer"
        ).labels()
        self.ops = reg.counter(
            "array.batch_ops", "element operations submitted through batches"
        ).labels()

    def on_submission(self, n_ops: int, n_requests: int) -> None:
        self.batches.inc()
        self.ops.inc(n_ops)
        if n_requests:
            self.ratio.observe(n_ops / n_requests)

    def state(self) -> dict:
        return _array_state(self.registry.snapshot())


def _batches(sizes, seed):
    rng = np.random.default_rng(seed)
    return [
        list(zip(rng.integers(0, _N_DISKS, m).tolist(), rng.integers(0, 30, m).tolist()))
        for m in sizes
    ]


def _fold_check(sizes, seed, mode):
    """Submit ``sizes``-op batches under ``mode``; after every top-level
    ``run()`` the folded registry state must equal the reference."""
    batches = _batches(sizes, seed)
    ref = _Reference()
    checks = []

    def drive():
        reg_state = lambda: _array_state(registry.snapshot())  # noqa: E731
        arr = _array()

        def submit(ops, **kwargs):
            sub = arr.submit_elements(ops, IOKind.READ, **kwargs)
            ref.on_submission(len(ops), len(sub))
            return sub

        if mode == "whole":
            for ops in batches:
                submit(ops)
            arr.run()
            checks.append((reg_state(), ref.state()))
        elif mode == "until-split":
            for k, ops in enumerate(batches):
                submit(ops)
                arr.run(until=arr.now + 0.01 * (k % 3 + 1))
                arr.run(until=arr.now)  # no-op: nothing folds, nothing lost
                checks.append((reg_state(), ref.state()))
            arr.run()
            checks.append((reg_state(), ref.state()))
        else:  # nested: submissions and a run() from inside callbacks
            pending = list(batches)
            nested = []

            def settled(req):
                if pending:
                    submit(pending.pop(0), callback=settled)
                if not nested:
                    nested.append(arr.now)
                    arr.run(until=arr.now + 0.05)

            submit(pending.pop(0), callback=settled)
            arr.run()
            while pending:  # empty batches never call back: drain the rest
                submit(pending.pop(0), callback=settled)
                arr.run()
            checks.append((reg_state(), ref.state()))
        assert arr.sim._obs.batches.log == []
        return arr

    old = set_obs_enabled(True)
    try:
        with scoped_registry() as registry:
            drive()
    finally:
        set_obs_enabled(old)
    for folded, reference in checks:
        assert folded == reference
    return checks


_size = st.one_of(
    st.just(0), st.just(1), st.integers(2, 47), st.integers(48, 70)
)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(_size, min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["whole", "until-split", "nested"]),
)
def test_folded_array_instruments_equal_per_submission_updates(sizes, seed, mode):
    _fold_check(sizes, seed, mode)


@pytest.mark.parametrize("mode", ["whole", "until-split", "nested"])
def test_every_batch_size_class_folds(mode):
    sizes = [0, 1, 2, 47, 48, 1, 0, 64, 3, 1]
    checks = _fold_check(sizes, 7, mode)
    folded = checks[-1][0]
    paths = folded["counters"]["array.batch_path"]["values"]
    assert [e["value"] for e in paths] == [len(sizes)]
    assert folded["counters"]["array.batch_ops"]["values"][0]["value"] == sum(sizes)
    ratio = folded["histograms"]["array.coalesce_ratio"]["values"][0]
    assert ratio["count"] == sum(1 for m in sizes if m)
