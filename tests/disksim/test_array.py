"""ElementArray: element addressing, coalescing, rounds, group callbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disksim.array import (
    DEFAULT_ELEMENT_SIZE,
    BatchSubmission,
    ElementArray,
)
from repro.disksim.disk import DiskParameters
from repro.disksim.events import Simulation
from repro.disksim.request import IOKind

_MB = 1024 * 1024


def _ideal(n=3, element=4 * _MB):
    return ElementArray(n, element, DiskParameters.ideal())


def test_default_element_size_is_4mb():
    assert DEFAULT_ELEMENT_SIZE == 4 * _MB


def test_invalid_element_size_rejected():
    with pytest.raises(ValueError):
        ElementArray(2, 0)


def test_element_request_addressing():
    arr = _ideal()
    r = arr.element_request(1, 3, IOKind.READ, n_elements=2)
    assert r.offset == 3 * 4 * _MB
    assert r.size == 8 * _MB
    with pytest.raises(ValueError):
        arr.element_request(0, -1, IOKind.READ)


def test_submit_elements_coalesces_contiguous_runs():
    arr = _ideal(1)
    reqs = arr.submit_elements(
        [(0, 0), (0, 1), (0, 2), (0, 5), (0, 7), (0, 8)], IOKind.READ
    )
    spans = sorted((r.offset // (4 * _MB), r.size // (4 * _MB)) for r in reqs)
    assert spans == [(0, 3), (5, 1), (7, 2)]


def test_submit_elements_dedups_slots():
    arr = _ideal(1)
    reqs = arr.submit_elements([(0, 2), (0, 2), (0, 2)], IOKind.READ)
    assert len(reqs) == 1
    assert reqs[0].size == 4 * _MB


def test_batch_contract_exposes_op_to_request_mapping():
    """Dedup is part of coalescing: the return value is the authoritative
    batch, and every submitted op maps back to its covering request."""
    arr = _ideal(2)
    ops = [(0, 0), (1, 5), (0, 1), (0, 0)]
    reqs = arr.submit_elements(ops, IOKind.READ)
    assert isinstance(reqs, BatchSubmission)
    assert len(reqs) == 2  # (0, 0..1) coalesced + (1, 5)
    per_op = reqs.op_requests()
    assert len(per_op) == len(ops)
    assert per_op[0] is per_op[2] is per_op[3]  # all covered by (0, 0..1)
    assert per_op[0].disk == 0 and per_op[0].size == 8 * _MB
    assert per_op[1].disk == 1 and per_op[1].offset == 5 * 4 * _MB


def test_callback_fires_per_coalesced_request_not_per_op():
    """The documented miscount: 3 ops over 2 requests fire 2 callbacks."""
    arr = _ideal(1)
    fired = []
    ops = [(0, 2), (0, 2), (0, 7)]
    reqs = arr.submit_elements(ops, IOKind.READ, callback=fired.append)
    arr.run()
    assert len(reqs) == 2
    assert len(fired) == 2  # never len(ops)


def test_submit_batch_accepts_numpy_arrays_and_sizes():
    arr = _ideal(2)
    reqs = arr.submit_batch(
        np.array([0, 0, 1]),
        np.array([0, 2, 4]),
        IOKind.READ,
        n_elements=np.array([3, 2, 1]),  # [0,3) and [2,4) overlap-merge
    )
    spans = sorted((r.disk, r.offset // (4 * _MB), r.size // (4 * _MB)) for r in reqs)
    assert spans == [(0, 0, 4), (1, 4, 1)]
    # Python ints, not numpy scalars: a trace sink JSON-encodes them
    assert all(type(v) is int for r in reqs for v in (r.disk, r.offset, r.size))


def test_submit_batch_rejects_mismatched_arrays():
    arr = _ideal(1)
    with pytest.raises(ValueError, match="parallel"):
        arr.submit_batch([0, 0], [1], IOKind.READ)
    with pytest.raises(ValueError, match="range"):
        arr.submit_batch([0], [-1], IOKind.READ)


def test_coalescer_merges_random_batches_into_maximal_runs():
    """Runs are the maximal blocks of covered slots per disk, in (disk,
    start) order, and every op maps to the request of the run containing
    it — duplicates and variable sizes included."""
    arr = _ideal(4)
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = int(rng.integers(60, 140))
        disks = rng.integers(0, 4, m).tolist()
        slots = rng.integers(0, 30, m).tolist()
        sizes = rng.integers(1, 4, m).tolist()
        for n_elements in (None, sizes):
            lengths = n_elements or [1] * m
            runs = arr._coalesce(disks, slots, n_elements)
            covered = {
                (d, t) for d, s, n in zip(disks, slots, lengths) for t in range(s, s + n)
            }
            expected = []
            for d, t in sorted(covered):
                if expected and expected[-1][0] == d and expected[-1][2] == t:
                    expected[-1][2] = t + 1
                else:
                    expected.append([d, t, t + 1])
            assert runs == [tuple(r) for r in expected]
            sub = arr.submit_batch(disks, slots, IOKind.READ, n_elements=n_elements)
            for d, s, n, req in zip(disks, slots, lengths, sub.op_requests()):
                lo, hi = req.offset // (4 * _MB), (req.offset + req.size) // (4 * _MB)
                assert req.disk == d and lo <= s and s + n <= hi


def test_submit_many_matches_submit_loop():
    """``submit_batch`` hands its coalesced requests to the engine in one
    ``submit_many`` call; that must be indistinguishable from submitting
    them one by one — same requests, same timings, same callbacks."""
    rng = np.random.default_rng(11)
    waves = [
        [
            (int(d), int(s), bool(w))
            for d, s, w in zip(
                rng.integers(0, 3, 40), rng.integers(0, 25, 40), rng.random(40) < 0.3
            )
        ]
        for _ in range(3)
    ]

    def run(batched):
        arr = ElementArray(3, 4 * _MB, DiskParameters.savvio_10k3())
        fired = []
        for wave in waves:
            reqs = [
                arr.element_request(d, s, IOKind.WRITE if w else IOKind.READ)
                for d, s, w in wave
            ]
            if batched:
                arr.sim.submit_many(reqs, fired.append)
            else:
                for r in reqs:
                    arr.sim.submit(r, fired.append)
            arr.run(until=arr.now + 0.05)  # next wave lands mid-service
        arr.run()
        return (
            arr.now,
            [
                (r.disk, r.offset, r.size, r.kind, r.start_time, r.finish_time)
                for r in arr.sim.completed
            ],
            [(r.disk, r.offset) for r in fired],
            [server.model.busy_time for server in arr.sim.disks],
        )

    assert run(True) == run(False)


def _force_submit_loop(monkeypatch):
    """Hand every batch to the engine by per-request ``submit`` — the
    plain loop the one ``submit_many`` call must reproduce."""

    def submit_loop(sim, requests, callback=None):
        for r in requests:
            sim.submit(r, callback)

    monkeypatch.setattr(Simulation, "submit_many", submit_loop)


def test_batch_toggle_preserves_requests_and_timings(monkeypatch):
    """A batch handed over in one ``submit_many`` call and the same
    batch submitted request by request produce byte-identical request
    streams and completion times."""
    rng = np.random.default_rng(11)
    ops = [
        (int(d), int(s))
        for d, s in zip(rng.integers(0, 3, 80), rng.integers(0, 25, 80))
    ]

    def run():
        arr = _ideal(3)
        reqs = arr.submit_elements(ops, IOKind.READ)
        arr.run()
        return [(r.disk, r.offset, r.size, r.start_time, r.finish_time) for r in reqs]

    batched = run()
    with monkeypatch.context() as m:
        _force_submit_loop(m)
        unbatched = run()
    assert batched == unbatched


def test_empty_submission_has_empty_mapping():
    arr = _ideal(1)
    reqs = arr.submit_elements([], IOKind.READ)
    assert list(reqs) == []
    assert reqs.op_requests() == []


def test_group_callback_fires_after_all():
    arr = _ideal(2)
    done = []
    arr.submit_elements(
        [(0, 0), (1, 0), (0, 5)], IOKind.READ, on_complete=lambda: done.append(arr.now)
    )
    arr.run()
    assert len(done) == 1
    assert done[0] == pytest.approx(arr.now)


def test_group_callback_on_empty_batch_fires_immediately():
    arr = _ideal(1)
    done = []
    arr.submit_elements([], IOKind.READ, on_complete=lambda: done.append(True))
    assert done == [True]


def test_per_request_and_group_callbacks_compose():
    arr = _ideal(1)
    per, group = [], []
    arr.submit_elements(
        [(0, 0), (0, 2)],
        IOKind.READ,
        callback=lambda r: per.append(r.offset),
        on_complete=lambda: group.append(True),
    )
    arr.run()
    assert len(per) == 2
    assert group == [True]


def test_for_paper_testbed_uses_savvio():
    arr = ElementArray(4)
    assert arr.sim.disks[0].model.params.seq_read_mbps == pytest.approx(54.8)
    assert len(arr.sim.disks) == 4
