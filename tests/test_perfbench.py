"""benchmarks/perfbench.py: the --tiny smoke run finishes and writes a record."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "perfbench.py"


def test_tiny_run_times_every_kernel(tmp_path):
    out = tmp_path / "b.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--tiny", "--out", str(out), "--no-append"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (record,) = json.loads(out.read_text())["runs"]
    assert record["scale"] == "tiny"
    assert "user_read_submit" in record["kernels"]


def _load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drive(sim_cls) -> list:
    """One random workload: completion callbacks that submit more,
    deferred calls, and same-time completions on idle disks."""
    from repro.disksim.disk import DiskParameters
    from repro.disksim.request import IOKind, IORequest
    from repro.disksim.scheduler import ElevatorScheduler
    from repro.obs import set_obs_enabled

    element = 4 * 1024 * 1024
    rng = np.random.default_rng(11)
    old = set_obs_enabled(False)
    try:
        sim = sim_cls(4, DiskParameters.savvio_10k3(), ElevatorScheduler)
    finally:
        set_obs_enabled(old)
    fired = []

    def request(disk: int) -> IORequest:
        kind = IOKind.READ if rng.random() < 0.7 else IOKind.WRITE
        return IORequest(disk, int(rng.integers(0, 64)) * element, element, kind)

    def on_done(r) -> None:
        fired.append(("done", r.req_id))
        if rng.random() < 0.5:
            sim.submit(request(int(rng.integers(0, 4))), on_done)
        if rng.random() < 0.3:
            sim.schedule(float(rng.random()) * 0.02, lambda: fired.append(("call", sim.now)))

    # same offset and size on idle disks: completions share a timestamp
    for disk in range(4):
        sim.submit(IORequest(disk, 0, element, IOKind.READ), on_done)
    for _ in range(40):
        sim.submit(request(int(rng.integers(0, 4))), on_done)
    for k in range(5):
        sim.schedule(0.01 * k, lambda: sim.submit_many([request(0), request(1)], on_done))
    sim.run(until=0.05)
    sim.run()
    log = [
        (r.req_id, r.disk, r.offset, r.kind, r.submit_time, r.start_time, r.finish_time)
        for r in sim.completed
    ]
    return [log, fired, sim.now]


def test_bare_simulation_follows_the_engine_loop():
    """The null-sink gate's yardstick copies ``Simulation._run_events``
    minus its observed block; it must leave the same completion log."""
    bare = _load_perfbench()._BareSimulation
    from repro.disksim.events import Simulation

    engine, yardstick = _drive(Simulation), _drive(bare)
    assert len(engine[0]) > 50
    # req_ids are global; compare them relative to each run's first
    for run in (engine, yardstick):
        first = run[0][0][0]
        run[0] = [(rid - first, *rest) for rid, *rest in run[0]]
        run[1] = [(what, v - first if what == "done" else v) for what, v in run[1]]
    assert yardstick == engine
