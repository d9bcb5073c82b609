"""Self-test of the end-to-end benchmark at ``--tiny`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import WORKLOADS
from run import E2E_UNITS, LAYER_UNITS, ROOT

RUN = Path(__file__).with_name("run.py")


def bench(tmp: Path, *args: str, env: dict | None = None):
    """Run the benchmark at tiny sizes; returns (exit code, stdout, records)."""
    out = tmp / "out"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--tiny", "--seconds", "0", "--out", str(out), *args],
        capture_output=True,
        text=True,
        env=env if env is not None else dict(os.environ),
        timeout=600,
    )
    path = out / "results.jsonl"
    records = [json.loads(line) for line in path.open()] if path.exists() else []
    return proc.returncode, proc.stdout, records


@pytest.fixture(scope="module")
def home_isolated(tmp_path_factory):
    """An untraced run of all six workloads with HOME and XDG_CACHE_HOME empty."""
    tmp = tmp_path_factory.mktemp("plain")
    home, xdg = tmp / "home", tmp / "xdg"
    home.mkdir()
    xdg.mkdir()
    env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME=str(xdg))
    rc, stdout, records = bench(tmp, env=env)
    return rc, stdout, records, home, xdg


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return (*bench(tmp, "--trace", "1"), tmp / "out")


def test_every_metric_printed_with_unit_and_no_failures(home_isolated):
    rc, stdout, records, _, _ = home_isolated
    assert rc == 0, stdout
    assert [r["workload"] for r in records] == list(WORKLOADS)
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    lines = stdout.splitlines()
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: m["unit"] for k, m in res["metrics"].items()} == E2E_UNITS
        assert all(m["value"] > 0 for m in res["metrics"].values())
    for name, unit in {**E2E_UNITS, "fail_frac": "ratio"}.items():
        rows = [ln.split() for ln in lines if ln.split()[:1] == [name]]
        assert len(rows) == len(WORKLOADS) and all(r[-1] == unit for r in rows)


def test_nothing_written_to_home_or_user_cache(home_isolated):
    _, _, _, home, xdg = home_isolated
    assert not any(home.iterdir()) and not any(xdg.iterdir())


def test_digests_repeat_across_invocations(home_isolated, tmp_path):
    rc, _, again = bench(tmp_path)
    assert rc == 0
    first = {r["workload"]: r["digest"] for r in home_isolated[2]}
    assert all(first.values())
    assert {r["workload"]: r["digest"] for r in again} == first


def test_traced_layers_add_up_to_the_traced_wall(traced):
    rc, stdout, records, out = traced
    assert rc == 0, stdout
    for rec in records:
        with open(out / f"spans-{rec['workload']}.jsonl") as fh:
            header, first_span = json.loads(next(fh)), json.loads(next(fh))
        assert header["spans"] > 0 and first_span["end"] >= first_span["start"]
        metrics = {k: m["value"] for k, m in rec["metrics"].items()}
        assert {k: m["unit"] for k, m in rec["metrics"].items()} == LAYER_UNITS
        wall = metrics["bench.traced_wall_s"]
        attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        unattributed = metrics["bench.unattributed_s"]
        assert attributed + unattributed == pytest.approx(wall, rel=0.01)
        # the spans cover the call: almost nothing runs outside them
        assert -1e-9 <= unattributed <= 0.05 * wall, rec["workload"]
        assert metrics["disksim.events.requests_completed"] > 0
    by_name = {r["workload"]: {k: m["value"] for k, m in r["metrics"].items()} for r in records}
    assert by_name["leaderboard-traced"]["obs.trace_spans"] > 0
    assert by_name["sweep-parallel"]["parallel.worker_busy_frac"] > 0
    assert by_name["nemesis-week"]["nemesis.ticks"] > 0
    assert by_name["rebuild-fig9"]["core.plan_lookups"] > 0


def test_failing_check_fails_the_run(tmp_path):
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        "from repro.raidsim.controller import RaidController\n"
        "RaidController.verify_redundancy = lambda self: False\n"
    )
    env = dict(os.environ, PYTHONPATH=str(hook))
    rc, stdout, records = bench(tmp_path, "--workload", "writes-fig10", env=env)
    assert rc != 0
    (rec,) = records
    assert rec["attempted"] >= 1 and rec["failed"] == rec["attempted"]
    assert not json.loads(stdout.splitlines()[-1])["correct"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(RUN.parent, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rebuild-fig9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
