"""The per-read ledger: every arrival settles into it exactly once.

Each scenario run keeps one :class:`~repro.workloads.openloop.SLOAccountant`
that :class:`~repro.raidsim.reconstruction.OnlineReconstruction` records
every settled user read into; every tier's user-read figures derive
from it.  These tests check that it holds one row per arrival, overall
and per tenant, on every leaderboard layout under the leaderboard
storm, and that the figures the tiers report are the ledger's.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import build_layout, leaderboard_layouts
from repro.obs import MetricsRegistry, scoped_registry
from repro.raidsim.campaign import _geometry, default_fault_plan, run_scenario
from repro.raidsim.leaderboard import FAIL_SLOW_MULTIPLIER, LeaderboardConfig
from repro.workloads.generator import user_read_stream
from repro.workloads.openloop import SLOAccountant, TenantSpec, open_arrivals

TENANTS = (
    TenantSpec("vod", rate_per_s=30.0, zipf_s=1.1),
    TenantSpec("batch", rate_per_s=10.0, process="bursty"),
)


def _storm_run(name: str, config: LeaderboardConfig, duration_s: float):
    """One leaderboard entry's scenario, with its ledger handed back."""
    layout = build_layout(name, config.n)
    plan = default_fault_plan(
        layout.n_disks,
        seed=config.seed,
        lse_burst=config.lse_burst,
        fail_slow_multiplier=FAIL_SLOW_MULTIPLIER,
        second_failure_time_s=None,
        transient_rate=config.transient_rate,
    )
    arrivals = open_arrivals(
        config.n, config.n_stripes, duration_s, TENANTS, seed=config.seed
    )
    ledger = SLOAccountant(registry=MetricsRegistry(), recorder=False)
    run = run_scenario(layout, arrivals, fault_plan=plan, slo=ledger, **_geometry(config))
    return arrivals, ledger, run


@st.composite
def _entries(draw):
    n = draw(st.integers(3, 7))
    name = draw(st.sampled_from(leaderboard_layouts(n)))
    config = LeaderboardConfig(
        n=n,
        n_stripes=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return name, config, draw(st.floats(0.5, 4.0))


@settings(max_examples=100, deadline=None)
@given(entry=_entries())
def test_ledger_holds_one_row_per_arrival(entry):
    name, config, duration_s = entry
    arrivals, ledger, run = _storm_run(name, config, duration_s)
    assert len(ledger) == len(arrivals)
    summary = ledger.summary(duration_s)
    assert dict(summary.per_tenant_served) == Counter(r.tenant for r in arrivals)
    assert run.online.n_user_reads == summary.served == len(arrivals)


def test_tier_figures_are_the_ledgers():
    config = LeaderboardConfig(n=5, n_stripes=8, lse_burst=4, transient_rate=0.1)
    arrivals, ledger, run = _storm_run("raid5", config, 3.0)
    online, summary = run.online, ledger.summary(3.0)
    assert online.failed_user_reads == ledger.failed == summary.failed > 0
    assert online.degraded_reads == ledger.degraded > 0
    assert online.mean_user_latency_s == summary.mean_s
    assert online.max_user_latency_s == summary.max_s
    assert run.availability == 1.0 - online.unavailability
    assert online.unavailability == ledger.failed / len(ledger)


def test_a_run_without_a_ledger_feeds_no_instrument():
    layout = build_layout("shifted-mirror", 3)
    reads = user_read_stream(3, 4, duration_s=1.0, rate_per_s=20.0, seed=5)
    with scoped_registry() as reg:
        run = run_scenario(
            layout, reads, failed_disks=(0,), n_stripes=4,
            element_size=1 << 20, payload_bytes=8, window=4, tracer=False,
        )
        snap = reg.snapshot()
    assert run.online.n_user_reads == len(reads)
    names = [n for kind in snap.values() for n in kind]
    assert not [n for n in names if n.startswith("serve.")]
