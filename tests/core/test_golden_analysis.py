"""The analysis figures, pinned bit for bit.

Storage efficiency is pinned as ``float.hex()`` for every registry
layout at every accepted n in 2..11; the Table I and Fig. 7
experiments by the sha256 of their text and of ``repr`` of their data;
and ``repro table1 --n 5`` by the sha256 of its stdout, from a fresh
interpreter.  Together with ``test_golden_plans.py`` (every plan these
figures are counted from) they guard any change to how the figures are
derived.  Run the file as a script to print the current digests.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.core.errors import LayoutError
from repro.core.registry import REGISTRY, build_layout
from repro.experiments import fig7, table1

SRC = Path(__file__).resolve().parents[2] / "src"

GOLDEN_EFFICIENCY = "e64e8f358338dee55bb31cda62bb1d5d5e2b8a89ac81873ae545068c82d1967b"
GOLDEN_EFFICIENCY_CASES = 123
GOLDEN_EXPERIMENTS = {
    "table1.text": "e979ce2f6bcb98744d61ac8b0a4713369a0d9ceb92b04fdc8bd9c9d49904146f",
    "table1.data": "67c0fa98320e23daa75ca1d247d2d80ccdd2acfba7eeb73047c71d60a8da586d",
    "fig7.text": "f5ae7ca8ec54758264b804f088cb063a8cce756a62b0d1acab27a40726b167c6",
    "fig7.data": "cb7248fb3d5b7a4f68440c2c415ea43d481b3641ee5d58f28ee7304ffe2831de",
}
GOLDEN_TABLE1_STDOUT = "bce7a5c61041b3a74733279c79bfb23bfa908da1a0e7f31045f4a1646def4b22"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def efficiency_digest() -> tuple[str, int]:
    """sha256 over every ``name|n|storage_efficiency().hex()``, and the count."""
    h = hashlib.sha256()
    count = 0
    for name in REGISTRY:
        for n in range(2, 12):
            try:
                layout = build_layout(name, n)
            except (LayoutError, ValueError):
                continue
            h.update(f"{name}|{n}|{layout.storage_efficiency().hex()}\n".encode())
            count += 1
    return h.hexdigest(), count


def experiment_digests() -> dict[str, str]:
    """``<id>.text`` / ``<id>.data`` -> sha256, for Table I and Fig. 7."""
    out = {}
    for result in (table1.run(), fig7.run()):
        out[f"{result.experiment_id}.text"] = _sha(result.text)
        out[f"{result.experiment_id}.data"] = _sha(repr(result.data))
    return out


def table1_stdout_digest() -> str:
    """sha256 of ``repro table1 --n 5``'s stdout, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "table1", "--n", "5"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return _sha(proc.stdout)


def test_storage_efficiency_is_pinned():
    digest, count = efficiency_digest()
    assert count == GOLDEN_EFFICIENCY_CASES
    assert digest == GOLDEN_EFFICIENCY


def test_table1_and_fig7_experiments_are_pinned():
    assert experiment_digests() == GOLDEN_EXPERIMENTS


def test_table1_cli_stdout_is_pinned():
    assert table1_stdout_digest() == GOLDEN_TABLE1_STDOUT


if __name__ == "__main__":
    digest, count = efficiency_digest()
    print(f"GOLDEN_EFFICIENCY = {digest!r}")
    print(f"GOLDEN_EFFICIENCY_CASES = {count}")
    print("GOLDEN_EXPERIMENTS = {")
    for key, value in experiment_digests().items():
        print(f"    {key!r}: {value!r},")
    print("}")
    print(f"GOLDEN_TABLE1_STDOUT = {table1_stdout_digest()!r}")
