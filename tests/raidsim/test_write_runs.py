"""Compiled write runs issue what the coalescer would, content lands as per op.

A write op submits its compiled read and write runs, placed at its
stripe, and joins a pending log whose content lands in one pass.  The
contract under test, for every registry layout, with rotation on and
off, ``rmw`` and ``reconstruct``, windows 1 and 4, with and without a
disk dying mid-run:

* each op's submitted requests are, in order, what
  :meth:`ElementArray.submit_batch` gives over the op's cells placed
  by the stack — disk, offset, size, kind, priority and tag;
* a reference run that submits through ``submit_batch`` and installs
  each op's content as it completes leaves the same request log
  (timings included), the same ``array.*`` instruments, the same
  content store and death snapshots, and the generator in the same
  state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import LayoutError
from repro.core.registry import REGISTRY, build_layout
from repro.disksim.faultplan import FaultPlan
from repro.disksim.request import IOKind
from repro.obs import scoped_registry, set_obs_enabled
from repro.raidsim.controller import RaidController
from repro.workloads.generator import WriteOp

ELEM = 4 * 1024 * 1024


def _accepted_n(name: str) -> list[int]:
    out = []
    for n in range(2, 6):
        try:
            build_layout(name, n)
        except (LayoutError, ValueError):
            continue
        out.append(n)
    return out


#: every registry layout with the data-disk counts it accepts in 2..5
_SIZES = {name: _accepted_n(name) for name in REGISTRY}


def _reference_run(ctrl: RaidController, ops, strategy: str, window: int, rng) -> None:
    """Per-op submission through ``submit_batch`` and per-op content."""
    pending = list(ops)
    lay = ctrl.layout

    def start_op(op: WriteOp) -> None:
        entry = ctrl.plan_cache.write_plan(op.elements, strategy)
        disks, slots = ctrl.stack.cells(op.stripe)

        def op_done() -> None:
            data = lay.data_of(ctrl.content[ctrl.stack.cells(op.stripe)])
            data[entry.data] = ctrl.film.fresh(rng, entry.n_payloads)[entry.pick]
            ctrl.store_encoded(op.stripe, data, entry.writes)
            if pending:
                start_op(pending.pop(0))

        def do_writes() -> None:
            w = entry.writes
            ctrl.array.submit_batch(
                disks[w].tolist(), slots[w].tolist(), IOKind.WRITE, tag="write",
                on_complete=op_done,
            )

        r = entry.reads
        if len(r[0]):
            ctrl.array.submit_batch(
                disks[r].tolist(), slots[r].tolist(), IOKind.READ, tag="rmw-read",
                on_complete=do_writes,
            )
        else:
            do_writes()

    for _ in range(min(window, len(pending))):
        start_op(pending.pop(0))
    ctrl.array.run()


def _run(case, reference: bool):
    """One write run; returns what a caller can observe of it."""
    layout = build_layout(case["name"], case["n"])
    plan = None
    if case["death"] is not None:
        plan = FaultPlan(seed=case["seed"]).with_disk_failure(*case["death"])
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg:
            ctrl = RaidController(
                layout, n_stripes=case["n_stripes"], element_size=ELEM,
                payload_bytes=case["payload_bytes"], rotate=case["rotate"],
                fault_plan=plan, tracer=False,
            )
            submitted = []  # per submission: its requests
            # the reference submits through submit_batch, the write
            # path through submit_runs (which submit_batch ends in)
            name = "submit_batch" if reference else "submit_runs"
            submit = getattr(ctrl.array, name)

            def spy(*args, **kwargs):
                sub = submit(*args, **kwargs)
                submitted.append([(r.disk, r.offset, r.size, r.kind, r.priority, r.tag) for r in sub])
                return sub

            setattr(ctrl.array, name, spy)
            rng = np.random.default_rng(case["seed"])
            ops = [WriteOp(stripe, cells) for stripe, cells in case["ops"]]
            if reference:
                _reference_run(ctrl, ops, case["strategy"], case["window"], rng)
            else:
                ctrl.run_write_workload(
                    ops, strategy=case["strategy"], window=case["window"], rng=rng
                )
            snap = reg.snapshot()
    finally:
        set_obs_enabled(old)
    instruments = {
        kind: {k: v for k, v in snap[kind].items() if k.startswith("array.")}
        for kind in ("counters", "histograms")
    }
    log = ctrl.array.sim.completed
    rank = {rid: k for k, rid in enumerate(sorted(r.req_id for r in log))}
    requests = [
        (rank[r.req_id], r.disk, r.offset, r.size, r.kind, r.tag,
         r.submit_time, r.start_time, r.finish_time)
        for r in log
    ]
    snapshots = {d: s.tobytes() for d, s in ctrl._death_snapshots.items()}
    return submitted, requests, instruments, ctrl.content.tobytes(), snapshots, rng.bytes(8)


@st.composite
def _cases(draw, name: str):
    n = draw(st.sampled_from(_SIZES[name]))
    layout = build_layout(name, n)
    n_stripes = draw(st.integers(1, 2 * layout.n_disks))
    element = st.tuples(st.integers(0, n - 1), st.integers(0, layout.data_rows - 1))
    op = st.tuples(
        st.integers(0, n_stripes - 1),
        st.lists(element, min_size=1, max_size=n * layout.data_rows + 1).map(tuple),
    )
    return {
        "name": name,
        "n": n,
        "n_stripes": n_stripes,
        "rotate": draw(st.booleans()),
        "strategy": draw(st.sampled_from(["rmw", "reconstruct"])),
        "window": draw(st.sampled_from([1, 4])),
        "payload_bytes": draw(st.sampled_from([1, 5, 8])),
        "ops": draw(st.lists(op, min_size=1, max_size=10)),
        "seed": draw(st.integers(0, 2**16)),
        "death": draw(
            st.one_of(
                st.none(),
                st.tuples(st.integers(0, layout.n_disks - 1), st.floats(0.0, 0.5)),
            )
        ),
    }


@pytest.mark.parametrize("name", sorted(n for n, sizes in _SIZES.items() if sizes))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_write_runs_equal_the_coalescers_and_content_lands_as_per_op(name, data):
    case = data.draw(_cases(name))
    compiled = _run(case, reference=False)
    reference = _run(case, reference=True)
    assert compiled[0] == reference[0]  # per-submission requests, in order
    assert compiled[1:] == reference[1:]


def test_every_registry_layout_is_covered():
    assert all(_SIZES.values()), [name for name, sizes in _SIZES.items() if not sizes]
