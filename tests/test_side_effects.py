"""The library keeps to the working directory: no caches under $HOME."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_DRIVE = """
import numpy as np
from repro.cli import main
from repro.disksim.array import ElementArray
from repro.disksim.request import IOKind

rng = np.random.default_rng(0)
arr = ElementArray(4)
sub = arr.submit_batch(rng.integers(0, 4, 64), rng.integers(0, 32, 64), IOKind.READ)
arr.run()
assert len(sub) > 0
assert main(["simulate", "rebuild", "--layout", "shifted-mirror",
             "--n", "3", "--failed", "0", "--stripes", "4"]) == 0
"""


def test_batch_submission_and_rebuild_write_nothing_under_home(tmp_path):
    home = tmp_path / "home"
    work = tmp_path / "work"
    home.mkdir()
    work.mkdir()
    env = dict(
        os.environ,
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        PYTHONPATH=str(SRC),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVE],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.relative_to(home) for p in home.rglob("*")) == []
