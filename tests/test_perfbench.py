"""benchmarks/perfbench.py: the --tiny smoke run finishes and writes a record."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
