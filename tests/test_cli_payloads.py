"""The ``--json`` payloads of the scenario commands, pinned bit for bit.

``tests/disksim/test_golden_results.py`` pins the result dataclasses;
this file pins what the CLI writes from them: the record builders, the
non-finite -> ``null`` rule and the ``metrics`` snapshot (the
``serve.*`` instruments included).  Each command runs in a fresh
interpreter at a small size, and the test compares the sha256 of its
payload.

Wall-clock histograms (``pool.map_wall_s``, ``sweep.point_wall_s``)
keep their observation ``count`` only: their ``min``, ``max`` and
``sum`` change from run to run, and which bucket a wall time lands in
depends on the host.  Everything else stays in, including
``sweep.point_pickle_bytes``, so the pickled ``SweepPoint`` cannot
change size unnoticed.

Run as a script to print the current digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: histograms whose observations are host wall-clock seconds
WALL_CLOCK = ("pool.map_wall_s", "sweep.point_wall_s")

COMMANDS = {
    "serve": [
        "serve", "--n", "4", "--stripes", "4",
        "--tenant", "video:20:bursty:1.1", "--tenant", "batch:10",
        "--deadline-ms", "500", "--throttle", "latency:50",
    ],
    "faultcampaign": [
        "faultcampaign", "--family", "mirror-parity", "--n", "3", "--stripes", "4",
    ],
    "faultcampaign-seeds": [
        "faultcampaign", "--family", "mirror-parity", "--n", "3", "--stripes", "4",
        "--seeds", "3", "--jobs", "1",
    ],
    "leaderboard": ["leaderboard", "--n", "5", "--stripes", "4"],
    # storm rates raised so the day holds rebuild ticks and failed reads
    "nemesis": [
        "nemesis", "--horizon-days", "1", "--seed", "3",
        "--storms-per-day", "8", "--deaths-per-day", "2", "--bursts-per-day", "6",
    ],
}

GOLDEN = {
    'serve': 'a86200900f29ee419beac6849df8342159cc43436e5201db67b9f3268f2782d4',
    'faultcampaign': '88e432e252dfc66c8e23d065079cd7a35f9416754302521f35a2d140d1ade460',
    'faultcampaign-seeds': '1d96e278a991eba854e4bdb131e504a2de65fe6ac9931d996edff4b4bd569a4a',
    'leaderboard': '57eedc932b52b1ff139dbf2a9f7715b1f3e8647ea59d686e6b26a49f88c7c49f',
    'nemesis': 'fbb21c3bac31549abff72b49a6a138eb850934b97f8d1aac21893a23b4dbef16',
}


def payload(name: str, workdir: Path) -> dict:
    """Run one command in a fresh interpreter and load its ``--json``."""
    out = workdir / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *COMMANDS[name], "--json", str(out)],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def payload_digest(data: dict) -> str:
    hists = data.get("metrics", {}).get("histograms", {})
    for name in WALL_CLOCK:
        for value in hists.get(name, {}).get("values", []):
            for key in ("min", "max", "sum", "counts"):
                value.pop(key, None)
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_json_payload_digest(name, tmp_path):
    assert payload_digest(payload(name, tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            print(f"    {name!r}: {payload_digest(payload(name, Path(tmp)))!r},")
