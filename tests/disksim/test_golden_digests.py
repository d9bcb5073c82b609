"""Golden completion digests: the event engine's output, pinned bit for bit.

Each workload below is a small seeded run of the engine (directly, or
through the RAID controller and the serve tier).  Every simulation it
builds is captured, and the digest is the sha256 of each simulation's
completion log — ``(disk, offset, size, kind, start_time, finish_time)``
per completed request, in completion order, floats in ``float.hex``
form — followed by its final clock and per-disk busy times.

Request ids are left out on purpose: they come from a process-wide
counter, so they depend on which tests ran first.

A digest that changes means the engine computed a different timeline.
Refactors of the engine must leave every digest untouched; a
deliberate model change must say so and re-pin them.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.layouts import shifted_mirror, shifted_mirror_parity, traditional_mirror
from repro.disksim.array import ElementArray
from repro.disksim.disk import DiskParameters
from repro.disksim.events import Simulation
from repro.disksim.faultplan import FaultPlan
from repro.disksim.request import IOKind
from repro.disksim.scheduler import ElevatorScheduler, FIFOScheduler, PriorityScheduler
from repro.raidsim.controller import RaidController, RetryPolicy
from repro.raidsim.serve import ServeConfig, compare_serve

_ELEMENT = 1 << 20


@contextmanager
def _captured_simulations():
    """Record every :class:`Simulation` constructed inside the block."""
    sims: list[Simulation] = []
    original = Simulation.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sims.append(self)

    Simulation.__init__ = init
    try:
        yield sims
    finally:
        Simulation.__init__ = original


def _digest(sims: list[Simulation]) -> str:
    h = hashlib.sha256()
    for sim in sims:
        for r in sim.completed:
            h.update(
                repr(
                    (
                        int(r.disk),
                        int(r.offset),
                        int(r.size),
                        r.kind.value,
                        r.start_time.hex(),
                        r.finish_time.hex(),
                    )
                ).encode()
            )
        h.update(sim.now.hex().encode())
        for server in sim.disks:
            h.update(server.model.busy_time.hex().encode())
    return h.hexdigest()


def _random_array(seed: int, scheduler, n_disks: int = 5, n_ops: int = 400):
    rng = np.random.default_rng(seed)
    arr = ElementArray(n_disks, _ELEMENT, DiskParameters.savvio_10k3(), scheduler)
    for d, s, w, p in zip(
        rng.integers(0, n_disks, n_ops),
        rng.integers(0, 96, n_ops),
        rng.random(n_ops) < 0.3,
        rng.choice([0, 5, 10], n_ops),
    ):
        arr.submit(
            arr.element_request(
                int(d),
                int(s),
                IOKind.WRITE if w else IOKind.READ,
                priority=int(p),
            )
        )
    return arr, rng


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _fifo() -> None:
    arr, _ = _random_array(1, FIFOScheduler)
    arr.run()


def _elevator() -> None:
    arr, _ = _random_array(2, ElevatorScheduler)
    arr.run()


def _priority() -> None:
    arr, _ = _random_array(3, PriorityScheduler)
    arr.run()


def _deferred_submit_at() -> None:
    """Immediate and deferred submissions interleave on the calendar."""
    arr, rng = _random_array(4, ElevatorScheduler, n_ops=120)
    sim = arr.sim
    for t, d, s in zip(
        rng.uniform(0.0, 0.4, 60), rng.integers(0, 5, 60), rng.integers(0, 96, 60)
    ):
        sim.submit_at(float(t), arr.element_request(int(d), int(s), IOKind.READ))
    arr.run()


def _open_loop_batches() -> None:
    """Open-loop arrival batches through ``submit_many_at``."""
    rng = np.random.default_rng(5)
    arr = ElementArray(4, _ELEMENT, DiskParameters.savvio_10k3(), PriorityScheduler)
    t = 0.0
    for _ in range(40):
        t += float(rng.exponential(0.01))
        k = int(rng.integers(1, 6))
        reqs = [
            arr.element_request(int(d), int(s), IOKind.READ, priority=int(p))
            for d, s, p in zip(
                rng.integers(0, 4, k), rng.integers(0, 64, k), rng.choice([0, 10], k)
            )
        ]
        arr.sim.submit_many_at(t, reqs)
    arr.run()


def _callback_chains_and_stepping() -> None:
    """Read-before-write chains from callbacks, run in ``until`` steps."""
    rng = np.random.default_rng(6)
    arr = ElementArray(4, _ELEMENT, DiskParameters.savvio_10k3(), ElevatorScheduler)

    def write_back(req) -> None:
        arr.submit(arr.element_request((req.disk + 1) % 4, 7, IOKind.WRITE))

    for d, s in zip(rng.integers(0, 4, 80), rng.integers(0, 48, 80)):
        arr.submit(arr.element_request(int(d), int(s), IOKind.READ), write_back)
    for step in range(1, 6):
        arr.run(until=0.05 * step)
    arr.run()


def _batches_both_coalescers() -> None:
    """``submit_batch`` below and above the scalar/numpy crossover."""
    rng = np.random.default_rng(7)
    arr = ElementArray(6, _ELEMENT, DiskParameters.savvio_10k3(), ElevatorScheduler)
    for m in (12, 30, 200, 600):
        arr.submit_batch(rng.integers(0, 6, m), rng.integers(0, 80, m), IOKind.READ)
        arr.run()
    arr.submit_batch(
        rng.integers(0, 6, 100),
        rng.integers(0, 80, 100),
        IOKind.WRITE,
        n_elements=rng.integers(1, 4, 100),
    )
    arr.run()


def _fail_slow_and_transients_engine() -> None:
    """Fault hooks on the bare array: per-event path, errors recorded."""
    plan = FaultPlan(seed=8).with_transients(rate=0.2).with_fail_slow(2, 6.0)
    faults = plan.activate(_ELEMENT, 4, 96)
    rng = np.random.default_rng(8)
    arr = ElementArray(
        4, _ELEMENT, DiskParameters.savvio_10k3(), ElevatorScheduler, faults=faults
    )
    for d, s in zip(rng.integers(0, 4, 200), rng.integers(0, 96, 200)):
        arr.submit(arr.element_request(int(d), int(s), IOKind.READ))
    arr.run()


def _fail_slow_and_transients_rebuild() -> None:
    plan = FaultPlan(seed=9).with_transients(rate=0.2).with_fail_slow(1, 8.0)
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01, timeout_s=0.05)
    ctrl = RaidController(
        shifted_mirror_parity(4),
        n_stripes=6,
        payload_bytes=8,
        fault_plan=plan,
        retry_policy=policy,
    )
    assert ctrl.rebuild([0]).verified


def _rebuild(layout) -> None:
    ctrl = RaidController(layout, n_stripes=24, payload_bytes=8)
    assert ctrl.rebuild((0,)).verified


def _rebuild_mirror() -> None:
    _rebuild(traditional_mirror(5))


def _rebuild_shifted_mirror() -> None:
    _rebuild(shifted_mirror(5))


def _rebuild_mirror_parity() -> None:
    _rebuild(shifted_mirror_parity(5))


def _compare_serve() -> None:
    compare_serve(ServeConfig(n=4, n_stripes=4, rate_per_s=20.0, seed=13))


WORKLOADS = {
    "fifo": _fifo,
    "elevator": _elevator,
    "priority": _priority,
    "deferred-submit-at": _deferred_submit_at,
    "open-loop-batches": _open_loop_batches,
    "callback-chains": _callback_chains_and_stepping,
    "batch-coalescers": _batches_both_coalescers,
    "faults-engine": _fail_slow_and_transients_engine,
    "faults-rebuild": _fail_slow_and_transients_rebuild,
    "rebuild-mirror": _rebuild_mirror,
    "rebuild-shifted-mirror": _rebuild_shifted_mirror,
    "rebuild-mirror-parity": _rebuild_mirror_parity,
    "compare-serve": _compare_serve,
}

GOLDEN = {
    'fifo': '7edda695669ac55193277611287c8c96382deba9d692b527fa9b47955008421a',
    'elevator': '1e87715ec83310da8b3c3ba0f75b8d39106ac8ad6d3f10244e3a483f5a157060',
    'priority': '78493cdfa6ec67e6abef44623d18e8913c8571ad088803cd6998d0418726a031',
    'deferred-submit-at': 'e1afa29385ee68a3ad3cb50128578202547cfa3f72c05290e52ef81200eaa068',
    'open-loop-batches': '345ca9982db81c47a5d720ffb62ecb988396d3be47c6832731ecbacef84943bd',
    'callback-chains': 'f964925b0c20dd8a8eab85b160825ec37b8abc6ad184c2fe01a11ca6661a55fc',
    'batch-coalescers': '44dbab9dd4899f423774a740b2cce422ae6364bb38c345bd4da93791309ad1f6',
    'faults-engine': '62421e6834accf745b199dfa57e7bed61c944a80de30dd4c8700ce965adf7516',
    'faults-rebuild': '47f0d095184e7cf6d4152872c4e99510f09181786c9b060410f36e2981478bb0',
    'rebuild-mirror': '1ef38f74ee220f07f92bd08de45d986a2d4a98ac466f762d40d4d62eb98986ee',
    'rebuild-shifted-mirror': '1e09e8ee1b0037bb8c396dbb9d3cb9d0ea7a5ce5b187fc9c49bca1ed6438291f',
    'rebuild-mirror-parity': '30197f933b3df7e01ba0749bb3549eb53f16bdab2d7a50e07dc0099b9eae3308',
    'compare-serve': 'f0f2b4887a5a4854020ef1a9e47863454bc9db43dfa0936edff2dfb4ed42fd24',
}


def workload_digest(name: str) -> str:
    with _captured_simulations() as sims:
        WORKLOADS[name]()
    assert sims, f"workload {name!r} built no simulation"
    return _digest(sims)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_completion_digest(name):
    assert workload_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in WORKLOADS:
        print(f"    {name!r}: {workload_digest(name)!r},")
