"""Compiled user reads settle exactly as reads planned at their arrival.

:meth:`OnlineReconstruction.run` compiles each arrival's placed cells
and degraded flag before the run, puts the arrivals on the calendar as
one :meth:`Simulation.schedule_stream`, and submits a single-cell read
as one request.  The reference below is the per-read path it replaced:
one ``schedule`` per read, sources resolved and placed when the read
fires, every read through ``_submit_reads_with_retry``.  The contract
under test, for every leaderboard layout, rotation on and off, zero,
one or two failed disks, with and without a fault plan (transients, an
LSE burst so reads re-route, a disk death mid-run so the re-route's
failure set widens), two tenants, and reads at exactly a rebuild
completion's finish time: the completion log, the ledger rows,
``fault_stats``, the result, and the registry and recorder snapshots
all equal the reference's.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import UnrecoverableFailureError
from repro.core.registry import build_layout, leaderboard_layouts
from repro.disksim.faultplan import FaultPlan
from repro.disksim.scheduler import PriorityScheduler
from repro.obs import scoped_registry, set_obs_enabled
from repro.obs.timeseries import scoped_recorder
from repro.raidsim.controller import RaidController
from repro.raidsim.reconstruction import OnlineReconstruction, degraded_read_sources
from repro.workloads.generator import UserRead
from repro.workloads.openloop import SLOAccountant

ELEM = 4 * 1024 * 1024
TENANTS = ("vod", "batch")

#: every leaderboard layout with the data-disk counts it takes in 3..5
_SIZES: dict[str, list[int]] = {}
for _n in range(3, 6):
    for _name in leaderboard_layouts(_n):
        _SIZES.setdefault(_name, []).append(_n)


def _reference_run(online: OnlineReconstruction):
    """The per-read path: sources resolved and placed at each arrival."""
    ctrl = online.controller
    sim = ctrl.array.sim
    ledger = online.ledger
    observe = getattr(online.throttle, "observe", None)
    failed_set = set(online.failed)
    source_memo = {}
    logical_memo = {}

    def schedule_user_read(read: UserRead) -> None:
        def fire() -> None:
            logical = logical_memo.get(read.stripe)
            if logical is None:
                logical = logical_memo[read.stripe] = tuple(
                    sorted({ctrl.stack.logical_disk(read.stripe, f) for f in failed_set})
                )
            memo_key = (logical, read.i, read.j)
            hit = source_memo.get(memo_key)
            if hit is None:
                found = degraded_read_sources(ctrl.layout, set(logical), read.i, read.j)
                degraded = len(found) > 1 or found[0] != ctrl.layout.data_cell(read.i, read.j)
                hit = source_memo[memo_key] = (found, degraded)
            sources, degraded = hit
            cells = [ctrl.place(read.stripe, c) for c in sources]
            t0 = ctrl.array.now

            def settled(failed_reqs, rerouted: bool = False) -> None:
                if failed_reqs and not rerouted:
                    bigger = {
                        ctrl.stack.logical_disk(read.stripe, f)
                        for f in failed_set | set(ctrl._dead_disks)
                    }
                    try:
                        alt = degraded_read_sources(ctrl.layout, bigger, read.i, read.j)
                    except UnrecoverableFailureError:
                        alt = None
                    if alt is not None and alt != sources:
                        ctrl.fault_stats.rerouted_reads += 1
                        ctrl._submit_reads_with_retry(
                            [ctrl.place(read.stripe, c) for c in alt],
                            "user",
                            lambda fr: settled(fr, rerouted=True),
                            priority=0,
                        )
                        return
                now = sim.now
                lat = now - t0
                ledger.record(lat, read.tenant, now, len(failed_reqs), degraded)
                ledger.observe_queue_depth(sim.pending_count(), now)
                if observe is not None:
                    observe(lat)

            ctrl._submit_reads_with_retry(cells, "user", settled, priority=0)

        sim.schedule(max(0.0, read.time - ctrl.array.now), fire)

    for read in online.user_reads:
        schedule_user_read(read)
    rebuild = ctrl.rebuild(online.failed, window=online.window, throttle=online.throttle)
    ctrl.array.run()
    return rebuild, len(ledger), ledger.latency_stats(95), ledger.degraded, ledger.failed


def _controller(case) -> RaidController:
    plan = None
    if case["faults"] is not None:
        lse, death = case["faults"]
        plan = FaultPlan(seed=case["seed"]).with_transients(rate=0.3)
        plan = plan.with_lse_burst(lse)
        if death is not None:
            plan = plan.with_disk_failure(*death)
    return RaidController(
        build_layout(case["name"], case["n"]),
        n_stripes=case["n_stripes"],
        element_size=ELEM,
        scheduler_factory=PriorityScheduler,
        payload_bytes=8,
        rotate=case["rotate"],
        fault_plan=plan,
        tracer=False,
    )


def _run(case, reads, reference: bool):
    """One on-line run; returns what a caller can observe of it."""
    old = set_obs_enabled(True)
    try:
        with scoped_registry() as reg, scoped_recorder() as rec:
            ctrl = _controller(case)
            ledger = SLOAccountant(deadline_s=0.05, gauge_every=4)
            rows = []
            record, depth = ledger.record, ledger.observe_queue_depth

            def spy_record(lat, tenant, t_s, n_failed, degraded):
                rows.append((lat.hex(), tenant, t_s.hex(), n_failed, degraded))
                record(lat, tenant, t_s, n_failed, degraded)

            def spy_depth(n, t_s):
                rows.append((n, t_s.hex()))
                depth(n, t_s)

            ledger.record, ledger.observe_queue_depth = spy_record, spy_depth
            online = OnlineReconstruction(
                ctrl, case["failed"], reads, window=case["window"], ledger=ledger
            )
            try:
                if reference:
                    outcome = repr(_reference_run(online))
                else:
                    res = online.run()
                    outcome = repr((
                        res.rebuild,
                        res.n_user_reads,
                        (res.mean_user_latency_s, res.max_user_latency_s, res.p95_user_latency_s),
                        res.degraded_reads,
                        res.failed_user_reads,
                    ))
            except UnrecoverableFailureError as exc:
                outcome = f"raised: {exc}"
            ledger.flush()
            snapshots = repr(reg.snapshot()), repr(rec.snapshot())
    finally:
        set_obs_enabled(old)
    log = [
        (r.disk, r.offset, r.size, r.kind, r.priority, r.tag,
         r.start_time.hex(), r.finish_time.hex())
        for r in ctrl.array.sim.completed
    ]
    return log, rows, outcome, repr(ctrl.fault_stats), snapshots


def _single_cell_addresses(case, disk: int) -> list[tuple[int, int, int]]:
    """Addresses a read serves with one request on physical ``disk``."""
    ctrl = _controller(case)
    out = []
    for stripe in range(case["n_stripes"]):
        logical = {ctrl.stack.logical_disk(stripe, f) for f in case["failed"]}
        for i in range(case["n"]):
            for j in range(case["n"]):
                try:
                    sources = degraded_read_sources(ctrl.layout, logical, i, j)
                except UnrecoverableFailureError:
                    continue
                if len(sources) == 1 and ctrl.place(stripe, sources[0])[0] == disk:
                    out.append((stripe, i, j))
    return out


@st.composite
def _cases(draw, name: str):
    n = draw(st.sampled_from(_SIZES[name]))
    n_disks = build_layout(name, n).n_disks
    faults = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(2, 12),
                st.one_of(
                    st.none(),
                    st.tuples(st.integers(0, n_disks - 1), st.floats(0.0, 0.3)),
                ),
            ),
        )
    )
    return {
        "name": name,
        "n": n,
        "n_stripes": draw(st.integers(1, 4)),
        "rotate": draw(st.booleans()),
        "failed": tuple(
            draw(st.lists(st.integers(0, n_disks - 1), max_size=2, unique=True))
        ),
        "window": draw(st.sampled_from([1, 4])),
        "faults": faults,
        "seed": draw(st.integers(0, 2**16)),
    }


def _reads(data, case, after: float) -> list[UserRead]:
    read = st.builds(
        UserRead,
        st.floats(after, after + 0.5),
        st.integers(0, case["n_stripes"] - 1),
        st.integers(0, case["n"] - 1),
        st.integers(0, case["n"] - 1),
        st.sampled_from(TENANTS),
    )
    return data.draw(st.lists(read, max_size=12))


@pytest.mark.parametrize("name", sorted(_SIZES))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_compiled_reads_settle_as_reads_planned_at_arrival(name, data):
    case = data.draw(_cases(name))
    reads = []
    after = 0.0
    if case["failed"] and data.draw(st.booleans()):
        # reads at exactly a rebuild completion, on its disk: only the
        # stream's reserved seqs put all of them ahead of it
        ctrl = _controller(case)
        try:
            OnlineReconstruction(ctrl, case["failed"], [], window=case["window"]).run()
        except UnrecoverableFailureError:
            pass
        done = ctrl.array.sim.completed
        if done:
            tie = done[data.draw(st.integers(0, min(len(done), 8) - 1))]
            after = tie.finish_time
            targets = _single_cell_addresses(case, tie.disk)
            if targets:
                for tenant in TENANTS:
                    stripe, i, j = data.draw(st.sampled_from(targets))
                    reads.append(UserRead(after, stripe, i, j, tenant))
    reads += _reads(data, case, after)
    assert _run(case, reads, reference=False) == _run(case, reads, reference=True)


def test_every_leaderboard_layout_is_covered():
    assert set(_SIZES) == {name for n in range(3, 8) for name in leaderboard_layouts(n)}
