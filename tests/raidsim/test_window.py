"""A pipeline window below one is an error at every entry that takes one.

With ``window < 1`` no stripe or write op would ever start: the rebuild
and the on-line reconstruction would loop forever, and a write workload
would report its ops done with no I/O.  Each case runs in a fresh
interpreter under a timeout, so a hang fails the test instead of
stalling the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_PRELUDE = """\
from numpy.random import default_rng
from repro.core.layouts import shifted_mirror
from repro.disksim.scheduler import PriorityScheduler
from repro.raidsim.controller import RaidController
from repro.raidsim.reconstruction import OnlineReconstruction
from repro.workloads.generator import random_large_writes
"""

#: each entry's call, with ``window=W`` standing for the window
_CALLS = {
    "rebuild": "RaidController(shifted_mirror(4), n_stripes=4, payload_bytes=8)"
    ".rebuild((0,), window=W)",
    "online": "OnlineReconstruction(RaidController(shifted_mirror(4), n_stripes=4, "
    "payload_bytes=8, scheduler_factory=PriorityScheduler), (0,), [], window=W).run()",
    "writes": "RaidController(shifted_mirror(4), n_stripes=4, payload_bytes=8)"
    ".run_write_workload(random_large_writes(4, 4, 10, default_rng(1)), window=W, "
    "rng=default_rng(2))",
}


def _outcome(call: str, tmp_path) -> str:
    code = f"{_PRELUDE}try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    except subprocess.TimeoutExpired:
        return "still running after 30 s"
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("window", [0, -2])
@pytest.mark.parametrize("entry", sorted(_CALLS))
def test_window_below_one_is_rejected(entry, window, tmp_path):
    call = _CALLS[entry].replace("window=W", f"window={window}")
    assert _outcome(call, tmp_path) == f"window must be at least 1, got {window}"
