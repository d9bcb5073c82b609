"""Compiled rebuild phases issue what per-cell placement would.

A rebuild compiles each phase once per logical failure set: its reads
coalesced into runs relative to the stripe's first slot, and its
recovery steps as index groups.  Every stripe then places both by
arithmetic.  The contract under test, for every leaderboard layout,
with rotation on and off, every failure set within tolerance, any
window, spare writes on and off, and with no faults, an LSE burst or a
whole fault plan (transients, LSEs, a mid-rebuild disk death):

* each stripe's rebuild reads are the requests a reference builds from
  :meth:`RotatedStack.place` and the coalescer — disk, offset,
  size, kind, priority and tag, in submission order;
* a reference run that submits every stripe's reads cell by cell and
  applies every recovery step cell by cell leaves the same request log
  (timings included), the same content store and the same
  :class:`RebuildResult` — or raises the same error.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import UnrecoverableFailureError
from repro.core.reconstruction import CompiledSteps, RecoveryMethod, RecoveryStep
from repro.core.registry import build_layout, leaderboard_layouts
from repro.disksim.faultplan import FaultPlan
from repro.disksim.faults import LatentSectorErrors
from repro.disksim.request import IOKind
from repro.raidsim import controller as controller_mod
from repro.raidsim.controller import RaidController
from repro.workloads.openloop import FixedThrottle

ELEM = 4 * 1024 * 1024

#: every leaderboard roster member, at the smallest n it runs at
_ROSTER: dict[str, int] = {}
for _n in (3, 4):
    for _name in leaderboard_layouts(_n):
        _ROSTER.setdefault(_name, _n)


def _reference_runs(ctrl: RaidController, stripe: int, phase) -> list[tuple]:
    """The phase's read requests from per-cell placement and the coalescer."""
    cells = [
        ctrl.stack.place(stripe, disk, row)
        for disk, rows in phase.reads.items()
        for row in rows
    ]
    runs = ctrl.array._coalesce([d for d, _ in cells], [s for _, s in cells], None)
    return [
        (d, lo * ELEM, (hi - lo) * ELEM, IOKind.READ, 10, "rebuild") for d, lo, hi in runs
    ]


def _reference_submit(task) -> None:
    """Submit a stripe's phase reads cell by cell, through the coalescer."""
    ctrl = task.run.ctrl
    cells = [
        ctrl.place(task.stripe, (disk, row))
        for disk, rows in task.phase.phase.reads.items()
        for row in rows
    ]
    ctrl._submit_reads_with_retry(cells, "rebuild", task.on_settled)


def _reference_apply(ctrl: RaidController, stripe: int, steps) -> None:
    """Apply recovery steps one at a time, each cell placed by the stack."""
    content = ctrl.content
    for step in steps.steps:
        pd, slot = ctrl.place(stripe, step.target)
        if step.method is RecoveryMethod.CODE:
            ctrl._decode_stripe(stripe, steps.failed_disks)
        elif step.method is RecoveryMethod.COPY:
            content[pd, slot] = content[ctrl.place(stripe, step.sources[0])]
        else:
            acc = np.zeros(ctrl.payload_bytes, dtype=np.uint8)
            for src in step.sources:
                acc ^= content[ctrl.place(stripe, src)]
            content[pd, slot] = acc


def _controller(case) -> RaidController:
    layout = build_layout(case["name"], case["n"])
    kwargs = dict(
        n_stripes=case["n_stripes"],
        element_size=ELEM,
        payload_bytes=8,
        rotate=case["rotate"],
        spares=len(case["failed"]) if case["write_spare"] else 0,
    )
    faults = case["faults"]
    if faults == "lse":
        lse = LatentSectorErrors(ELEM)
        for disk, slot in case["lse_cells"]:
            lse.inject(disk, slot)
        kwargs["lse"] = lse
    elif faults == "plan":
        plan = FaultPlan(seed=case["seed"], lse_cells=tuple(case["lse_cells"]))
        plan = plan.with_transients(rate=0.2)
        if case["death"] is not None:
            plan = plan.with_disk_failure(*case["death"])
        kwargs["fault_plan"] = plan
    return RaidController(layout, **kwargs)


def _rebuild(case, reference: bool):
    """One rebuild; returns what a caller can observe of it.

    The compiled run also checks each stripe's reads against
    :func:`_reference_runs` as they are submitted.
    """
    ctrl = _controller(case)
    submitted = []  # (stripe, phase) per compiled read submission
    with ExitStack() as patches:
        if reference:
            patches.enter_context(
                mock.patch.object(controller_mod._StripeTask, "submit", _reference_submit)
            )
            patches.enter_context(
                mock.patch.object(RaidController, "_apply_steps", _reference_apply)
            )
        else:
            submit = controller_mod._StripeTask.submit
            submit_runs = ctrl.array.submit_runs

            def spy_submit(task):
                submitted.append((task.stripe, task.phase.phase))
                submit(task)

            def spy_runs(runs, kind, **kwargs):
                sub = submit_runs(runs, kind, **kwargs)
                if kwargs.get("tag") == "rebuild":
                    stripe, phase = submitted[-1]
                    got = [(r.disk, r.offset, r.size, r.kind, r.priority, r.tag) for r in sub]
                    assert got == _reference_runs(ctrl, stripe, phase), (stripe, phase)
                return sub

            patches.enter_context(
                mock.patch.object(controller_mod._StripeTask, "submit", spy_submit)
            )
            ctrl.array.submit_runs = spy_runs
        try:
            result = ctrl.rebuild(
                case["failed"],
                window=case["window"],
                write_spare=case["write_spare"],
                throttle=FixedThrottle(case["throttle"]),
            )
        except UnrecoverableFailureError as exc:
            result = ("raised", str(exc))
    log = ctrl.array.sim.completed
    rank = {rid: k for k, rid in enumerate(sorted(r.req_id for r in log))}
    requests = [
        (
            rank[r.req_id], r.disk, r.offset, r.size, r.kind, r.priority, r.tag,
            r.submit_time, r.start_time, r.finish_time, r.error, r.error_kind, r.attempt,
        )
        for r in log
    ]
    return result, requests, ctrl.content.copy(), len(submitted)


@st.composite
def _cases(draw, name: str):
    n = _ROSTER[name]
    layout = build_layout(name, n)
    k = draw(st.integers(1, layout.fault_tolerance))
    failed = draw(st.sampled_from(layout.all_failure_sets(k)))
    n_stripes = draw(st.integers(1, 2 * layout.n_disks))
    faults = draw(st.sampled_from(["none", "lse", "plan"]))
    slots = n_stripes * layout.rows
    cell = st.tuples(st.integers(0, layout.n_disks - 1), st.integers(0, slots - 1))
    survivors = [d for d in range(layout.n_disks) if d not in failed]
    return {
        "name": name,
        "n": n,
        "rotate": draw(st.booleans()),
        "failed": failed,
        "n_stripes": n_stripes,
        "window": draw(st.sampled_from([1, 2, 4, 8])),
        "write_spare": draw(st.booleans()),
        "throttle": draw(st.sampled_from([0.0, 0.0, 0.005])),
        "faults": faults,
        "lse_cells": draw(st.lists(cell, max_size=12, unique=True)),
        "seed": draw(st.integers(0, 2**16)),
        "death": draw(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from(survivors), st.floats(0.0, 0.5)),
            )
        ),
    }


@pytest.mark.parametrize("name", sorted(_ROSTER))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_compiled_rebuild_equals_per_cell_reference(name, data):
    case = data.draw(_cases(name))
    compiled = _rebuild(case, reference=False)
    reference = _rebuild(case, reference=True)
    result, requests, content, n_submitted = compiled
    assert result == reference[0]
    assert requests == reference[1]
    assert np.array_equal(content, reference[2])
    if not isinstance(result, tuple):
        assert n_submitted > 0 or not result.bytes_read


def test_roster_spans_the_layout_families():
    # the property above runs once per layout any leaderboard can rank:
    # mirrors, mirror-parity, three-way mirrors and the parity codes
    assert {
        "mirror",
        "shifted-mirror-parity",
        "three-mirror",
        "raid5",
        "raid6-evenodd",
        "rebuild-optimal-rdp",
    } <= set(_ROSTER)


_cell = st.tuples(st.integers(0, 5), st.integers(0, 2))
_step = st.tuples(
    _cell,
    st.sampled_from([RecoveryMethod.COPY, RecoveryMethod.XOR, RecoveryMethod.RECOMPUTE]),
    st.lists(_cell, min_size=1, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(_step, min_size=1, max_size=10),
    stripe=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_grouped_steps_equal_steps_applied_one_by_one(raw, stripe, seed):
    """Grouping keeps the order's meaning even where no layout's phase
    needs it today: a step that reads or rewrites an earlier target of
    its group starts a new group."""
    steps = [
        RecoveryStep(
            target, method, tuple(srcs[:1] if method is RecoveryMethod.COPY else srcs)
        )
        for target, method, srcs in raw
    ]
    ctrl = RaidController(
        build_layout("shifted-mirror", 3), n_stripes=6, payload_bytes=8, rotate=True
    )
    rng = np.random.default_rng(seed)
    ctrl.content[:] = rng.integers(0, 256, ctrl.content.shape, dtype=np.uint8)
    before = ctrl.content.copy()
    ctrl._apply_steps(stripe, CompiledSteps(steps, (), ctrl.stack.n_disks))
    grouped = ctrl.content.copy()
    ctrl.content[:] = before
    _reference_apply(ctrl, stripe, CompiledSteps(steps, (), ctrl.stack.n_disks))
    assert np.array_equal(grouped, ctrl.content)


@pytest.mark.parametrize("faults", ["none", "lse", "plan"])
def test_rebuilt_controller_is_freed_without_the_collector(faults):
    """A rebuild leaves no reference cycle behind: with the collector
    off, as in the end-to-end benchmark's child, a controller and its
    store go as soon as the last reference to them does."""
    case = {
        "name": "shifted-mirror-parity",
        "n": 3,
        "rotate": True,
        "failed": (0, 4),
        "n_stripes": 7,
        "write_spare": True,
        "faults": faults,
        "lse_cells": [(1, 2), (5, 7)],
        "seed": 3,
        "death": (2, 0.05),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctrl = _controller(case)
        ctrl.rebuild(case["failed"], window=2, write_spare=True, throttle=FixedThrottle(0.001))
        ref = weakref.ref(ctrl)
        del ctrl
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
