"""Controllers of one layout start from one template, and never share state.

Every :class:`RaidController` over the same layout object, stripe count,
rotation, payload size and film seed starts from the placement and
encoded content kept on the layout.  These tests pin what that may not
change: a controller's own writes, rebuilds and disk deaths never reach
the next controller, and a repeated build binds no instrument and
encodes nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.layouts import Layout, shifted_mirror_parity
from repro.core.registry import REGISTRY, build_layout
from repro.disksim.faultplan import FaultPlan
from repro.obs import metrics, obs_enabled, scoped_registry
from repro.raidsim.controller import RaidController
from repro.workloads.generator import random_large_writes

SRC = Path(__file__).resolve().parents[2] / "src"
N = 5  # every registry layout accepts it (X-Code needs a prime >= 5)
STRIPES = 3


def _kw(rotate: bool) -> dict:
    return dict(n_stripes=STRIPES, payload_bytes=8, rotate=rotate, tracer=False)


@pytest.mark.parametrize("rotate", [False, True], ids=["fixed", "rotated"])
@pytest.mark.parametrize("name", list(REGISTRY))
def test_a_controller_never_writes_the_next_ones_start_state(name, rotate):
    layout = build_layout(name, N)
    kw = _kw(rotate)
    fresh = RaidController(build_layout(name, N), spares=1, **kw).content

    spare = RaidController(layout, spares=1, **kw)
    # the rebuild wipes disk 0's column in the store, then restores it
    assert spare.rebuild((0,), write_spare=True).verified
    assert spare.array.sim.total_bytes_written > 0  # the spare writes ran

    writer = RaidController(layout, **kw)
    rng = np.random.default_rng(1)
    ops = random_large_writes(layout.n, STRIPES, n_ops=6, rng=rng, rows=layout.data_rows)
    writer.run_write_workload(ops, rng=rng)
    assert not np.array_equal(writer.content, fresh[:-1])

    doomed = RaidController(
        layout, fault_plan=FaultPlan(seed=3).with_disk_failure(1, 0.0), **kw
    )
    doomed.array.run()
    assert (doomed.content[1] == 0xDD).all()

    assert np.array_equal(RaidController(layout, spares=1, **kw).content, fresh)
    assert np.array_equal(RaidController(layout, **kw).content, fresh[:-1])


@pytest.mark.skipif(not obs_enabled(), reason="null instruments bind nothing")
def test_a_second_build_binds_no_instrument_and_encodes_nothing():
    layout = shifted_mirror_parity(N)
    counted = (
        mock.patch.object(
            metrics._Instrument, "labels", autospec=True,
            side_effect=metrics._Instrument.labels,
        ),
        mock.patch.object(Layout, "encode", autospec=True, side_effect=Layout.encode),
    )
    with scoped_registry():
        with counted[0] as labels, counted[1] as encode:
            RaidController(layout, n_stripes=STRIPES)
            assert labels.call_count > 0 and encode.call_count == 1
            labels.reset_mock()
            encode.reset_mock()
            RaidController(layout, n_stripes=STRIPES)
        assert labels.call_count == 0
        assert encode.call_count == 0


_BUILD = """
from repro.core.layouts import shifted_mirror_parity
from repro.raidsim.controller import RaidController

def build(layout):
    ctrl = RaidController(layout, n_stripes=3, payload_bytes=8)
    ctrl.rebuild((0, 1))
"""


@pytest.mark.skipif(not obs_enabled(), reason="a null registry records nothing")
def test_a_scoped_registry_binds_anew():
    """A build under a scoped registry records what the same build
    records in a fresh process, although this process has bound the
    same instruments to its default registry already."""
    namespace: dict = {}
    exec(_BUILD, namespace)
    layout = shifted_mirror_parity(4)
    namespace["build"](layout)  # binds the default registry, fills the template
    with scoped_registry() as reg:
        namespace["build"](layout)
        here = reg.snapshot()
    script = _BUILD + (
        "import json\nfrom repro.obs import default_registry\n"
        "build(shifted_mirror_parity(4))\n"
        "print(json.dumps(default_registry().snapshot()))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert here == json.loads(proc.stdout)
    assert here["counters"]["rebuild.phases"]["values"]
