"""Golden trace bytes: exported traces pinned byte for byte.

``test_golden_digests.py`` pins completion logs and
``test_golden_results.py`` the results built on them; this file pins
what the tracer writes.  Each digest is the sha256 of an exported
trace:

* the streamed JSONL of a leaderboard (storm retries, error spans,
  every layout of the roster);
* the streamed JSONL of a campaign sweep sampled at rate 0.5 (the
  sampler's keep/drop decisions are part of the bytes);
* the chrome-trace JSON of a buffered rebuild that writes the
  recovered elements to a spare (callback-free final writes).

A change to how spans are recorded, buffered or rendered must leave
every digest untouched; a deliberate change to the trace format must
say so and re-pin them.  Run this file as a script to print the
current digests.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.core.layouts import shifted_mirror
from repro.obs import (
    DEFAULT_BUFFER_WATERMARK,
    JsonlTraceSink,
    Tracer,
    chrome_trace,
    load_streaming_trace,
    set_default_tracer,
)
from repro.raidsim.campaign import compare_sweep
from repro.raidsim.controller import RaidController
from repro.raidsim.leaderboard import LeaderboardConfig, run_leaderboard


def _streamed(run, path: Path, sample: float = 1.0) -> tuple[bytes, Tracer]:
    """Run ``run()`` under a streaming default tracer: file bytes, tracer.

    The watermark and rate are explicit so ``REPRO_OBS_BUFFER`` and
    ``REPRO_OBS_SAMPLE`` cannot move the pins.
    """
    tracer = Tracer(
        sink=JsonlTraceSink(path),
        sample=sample,
        buffer_watermark=DEFAULT_BUFFER_WATERMARK,
    )
    old = set_default_tracer(tracer)
    try:
        run()
    finally:
        tracer.close()
        set_default_tracer(old)
    assert len(load_streaming_trace(path).events) == tracer.sink.events_written
    return path.read_bytes(), tracer


def _leaderboard(tmp: Path) -> bytes:
    data, _ = _streamed(
        lambda: run_leaderboard(
            LeaderboardConfig(n=5, n_stripes=8, seed=7), jobs=1
        ),
        tmp / "leaderboard.jsonl",
    )
    spans = [
        json.loads(line.rstrip(","))
        for line in data.decode().splitlines()[1:]
    ]
    io = [s for s in spans if s.get("cat") == "io"]
    # the pin covers retried requests and spans that carry an error
    assert any(s["args"]["attempt"] > 0 for s in io)
    assert {s["args"].get("error") for s in io} >= {"lse", "transient"}
    return data


def _sampled_campaign(tmp: Path) -> bytes:
    data, tracer = _streamed(
        lambda: compare_sweep("mirror", 3, n_seeds=2, n_stripes=8, jobs=1),
        tmp / "campaign.jsonl",
        sample=0.5,
    )
    # the pin covers spans the sampler kept and spans it dropped
    assert tracer.dropped_events > 0 and tracer.sink.events_written > 0
    return data


def _spare_rebuild(tmp: Path) -> bytes:
    tracer = Tracer()
    ctrl = RaidController(
        shifted_mirror(5), n_stripes=8, payload_bytes=8,
        spares=1, tracer=tracer,
    )
    ctrl.rebuild((0,), verify=False, write_spare=True)
    return json.dumps(chrome_trace(tracer)).encode()


WORKLOADS = {
    "leaderboard-seed7.jsonl": _leaderboard,
    "campaign-sample0.5.jsonl": _sampled_campaign,
    "rebuild-spare.json": _spare_rebuild,
}

GOLDEN = {
    'leaderboard-seed7.jsonl': '1a0209ed1b8c9c1ff7c03320b03ebec1a2e2156420050944d57d1fbc086e2617',
    'campaign-sample0.5.jsonl': 'efa451afb143ee948ecbd1f0cde982e33ef4b3c7c58ab83906abb83d4d959235',
    'rebuild-spare.json': '95d602215863fea5466bc621cfedab58770e127e8f864c69e13e2ac789111887',
}


def trace_digest(name: str, tmp: Path) -> str:
    return hashlib.sha256(WORKLOADS[name](tmp)).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_trace_bytes(name, tmp_path):
    assert trace_digest(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            print(f"    {name!r}: {trace_digest(name, Path(tmp))!r},")
