"""Golden result digests: what the scenario tiers report, pinned bit for bit.

``test_golden_digests.py`` pins the engine's completion logs.  This file
pins the results built on top of them: a serve comparison, the
leaderboard, a seeded campaign sweep, a campaign with a mid-rebuild
failure and a nemesis campaign.  Each digest is the sha256 of the
result's canonical form: dataclass fields with ``compare=False``
(wall times, metrics and timeseries snapshots) left out, floats in
``float.hex`` form.

A refactor of the scenario runners must leave every digest untouched;
a deliberate change to what they measure must say so and re-pin them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.registry import build_layout, comparison_pair
from repro.nemesis import NemesisConfig, run_nemesis_campaign
from repro.raidsim.campaign import (
    clean_rebuild_makespan,
    compare_arrangements,
    compare_sweep,
    default_fault_plan,
)
from repro.raidsim.leaderboard import LeaderboardConfig, run_leaderboard
from repro.raidsim.serve import ServeConfig, compare_serve


def canonical(obj):
    """JSON-ready form of a result, ``compare=False`` fields left out."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
    if isinstance(obj, dict):
        return {
            str(k): canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [canonical(v) for v in items]
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return canonical(obj.tolist())
    if isinstance(obj, float):
        return obj.hex()
    return obj


def result_digest(obj) -> str:
    blob = json.dumps(canonical(obj), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _serve(throttle):
    return lambda: compare_serve(
        ServeConfig(
            n=4, n_stripes=4, rate_per_s=20.0, seed=13,
            throttle=throttle, deadline_s=0.05,
        )
    )


def _leaderboard():
    return run_leaderboard(LeaderboardConfig(n=5, n_stripes=8))


def _sweep():
    return compare_sweep(
        "mirror-parity", 3, n_seeds=3, jobs=1,
        n_stripes=4, user_read_rate_per_s=20.0,
    )


def _second_failure():
    baseline, variant = comparison_pair("mirror-parity")
    layout = build_layout(baseline, 3)
    t = 0.5 * clean_rebuild_makespan(layout, (0,), n_stripes=6)
    plan = default_fault_plan(layout.n_disks, seed=2012, second_failure_time_s=t)
    return compare_arrangements(
        build_layout(baseline, 3),
        build_layout(variant, 3),
        plan,
        failed_disks=(0,),
        n_stripes=6,
    )


def _nemesis():
    report = run_nemesis_campaign(NemesisConfig(seed=7, horizon_s=3 * 86_400.0))
    # the pin covers both tick kinds and reads that really failed
    assert 0 < report.traditional.rebuild_ticks < report.traditional.n_ticks
    assert min(report.traditional.availability, report.shifted.availability) < 1.0
    return report.to_dict()


WORKLOADS = {
    "serve-throttled": _serve("token:5"),
    "serve-fixed-throttle": _serve("fixed:0.01"),
    "serve-latency-throttle": _serve("latency:50"),
    "leaderboard": _leaderboard,
    "sweep-mirror-parity": _sweep,
    "campaign-second-failure": _second_failure,
    "nemesis-seed7-3d": _nemesis,
}

GOLDEN = {
    'serve-throttled': '80c854e4263fb52f2d1bda9e2ad57e9f5bf31b6d85091e0f3b73c43cddc12ffa',
    'serve-fixed-throttle': 'cfc3745da3ccb5ddda61a2396b609a93cdb7e70ac1c02231264dbe65953552e9',
    'serve-latency-throttle': 'a7b85a048acff13371e68a961e3b97f4b7e93bca32e3eb50627a72782ca57a81',
    'leaderboard': '5f1228115e51663115c946c04427c30ffc99ba9ab864c972cb6f5614becaca62',
    'sweep-mirror-parity': '06b3d8c2f5502ef2bf1c99c817cdd9d4ed7d5b2352962411e9bdc2bae6ca3d95',
    'campaign-second-failure': '7f3583dc024f2ba2dd3afb9e6884690fd87797f91154b0d1107ad627ff515a23',
    'nemesis-seed7-3d': 'f219fe5ac07129c3c34b2e6d636cc665ea652c84a4707f7ec0709eb7626cdc40',
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_result_digest(name):
    assert result_digest(WORKLOADS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, run in WORKLOADS.items():
        print(f"    {name!r}: {result_digest(run())!r},")
