"""Imports follow calls: start-up loads only what a command runs.

Every package ``__init__`` re-exports lazily (``repro._lazy``), so
``import repro.cli`` loads the layout code every command needs and
nothing else, and each command's entry function finds every ``repro``
module it calls already imported by its own module: no timed call pays
for an import.  Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules no command needs before it runs: the HTTP exporter, the SVG
#: plotter, the worker pool and the subsystems of single commands
CLI_NEVER_LOADS = (
    "http.server",
    "ssl",
    "concurrent.futures",
    "repro.obs.http",
    "repro.experiments.svgplot",
    "repro.nemesis",
    "repro.raidsim.leaderboard",
)


def _python(code: str, tmp_path: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_unused_subsystem(tmp_path):
    out = _python("import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))", tmp_path)
    loaded = set(json.loads(out))
    assert "repro.cli" in loaded
    assert sorted(loaded & set(CLI_NEVER_LOADS)) == []


def test_public_spellings_resolve_on_first_use(tmp_path):
    out = _python(
        "import repro\n"
        "from repro import obs\n"
        "from repro.obs import Tracer\n"
        "from repro.experiments import fig9\n"
        "assert obs.Tracer is Tracer and fig9.__name__ == 'repro.experiments.fig9'\n"
        "assert repro.core.RotatedStack.__module__ == 'repro.core.stack'\n"
        "assert 'Simulation' in dir(repro.disksim)\n"
        "try:\n"
        "    repro.core.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n",
        tmp_path,
    )
    assert out.strip() == "module 'repro.core' has no attribute 'no_such_name'"


#: per end-to-end entry function: (set-up, the call), at tiny sizes
ENTRY_CALLS = {
    "compare_serve": (
        "from repro.raidsim.serve import ServeConfig, compare_serve\n"
        "config = ServeConfig(family='mirror', n=8, n_stripes=16, seed=2012)",
        "compare_serve(config)",
    ),
    "run_leaderboard": (
        # traced, as `repro leaderboard --trace-out` runs it
        "from repro import obs\n"
        "from repro.raidsim.leaderboard import LeaderboardConfig, run_leaderboard\n"
        "config = LeaderboardConfig(n=5, n_stripes=8, rate_per_s=10.0, seed=7)\n"
        "tracer = obs.Tracer(sink=obs.JsonlTraceSink('trace.jsonl'))\n"
        "obs.set_default_tracer(tracer)",
        "run_leaderboard(config, jobs=1); tracer.close()",
    ),
    "compare_sweep": (
        "from repro.raidsim.campaign import compare_sweep",
        "compare_sweep('mirror-parity', 5, n_seeds=2, n_stripes=8, root_seed=2012, jobs=1)",
    ),
    "run_nemesis_campaign": (
        "from repro.nemesis import NemesisConfig, run_nemesis_campaign\n"
        "config = NemesisConfig(horizon_s=86_400.0, seed=2012)",
        "run_nemesis_campaign(config)",
    ),
    "fig9": (
        "from repro.experiments import fig9",
        "fig9.run_a(n_stripes=4); fig9.run_b(n_stripes=1)",
    ),
    "fig10": (
        "from repro.experiments import fig10",
        "fig10.run_a(n_ops=20); fig10.run_b(n_ops=20)",
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_CALLS))
def test_entry_call_imports_no_repro_module(entry, tmp_path):
    setup, call = ENTRY_CALLS[entry]
    out = _python(
        "import json, sys\n"
        f"{setup}\n"
        "before = set(sys.modules)\n"
        f"{call}\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before"
        " if m.split('.')[0] == 'repro')))",
        tmp_path,
    )
    assert json.loads(out) == []


@pytest.mark.parametrize(
    "setup",
    ["import repro.raidsim.serve", "from repro.nemesis import run_nemesis_campaign"],
)
def test_serve_and_nemesis_setup_load_no_process_pool(setup, tmp_path):
    """Only a real fan-out imports the pool machinery (``repro.parallel``)."""
    out = _python(f"import json, sys\n{setup}\nprint(json.dumps(sorted(sys.modules)))", tmp_path)
    loaded = set(json.loads(out))
    assert sorted(loaded & {"concurrent.futures", "multiprocessing"}) == []
