"""tools/bench_compare.py: exit 0 clean, 1 regression, 2 usage error."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


def _record(scale="tiny", **kernels):
    return {"scale": scale, "kernels": kernels or {"engine_elevator": 1.0}}


def _compare(tmp_path, baseline, current):
    paths = []
    for name, content in (("baseline.json", baseline), ("current.json", current)):
        path = tmp_path / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *paths], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "baseline",
    [
        pytest.param({"runs": []}, id="empty-runs"),
        pytest.param({"kernel": {}}, id="not-a-trajectory"),
        pytest.param([1, 2, 3], id="json-list"),
        pytest.param('{"runs": [', id="malformed-json"),
        pytest.param(_record(scale="full"), id="scale-mismatch"),
    ],
)
def test_usage_errors_exit_2_with_one_line_message(tmp_path, baseline):
    proc = _compare(tmp_path, baseline, {"runs": [_record()]})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_clean_and_regressed_runs(tmp_path):
    clean = _compare(tmp_path, _record(), {"runs": [_record()]})
    assert clean.returncode == 0, clean.stderr
    slow = _compare(tmp_path, _record(), _record(engine_elevator=2.0))
    assert slow.returncode == 1
    assert "REGRESSION" in slow.stdout
