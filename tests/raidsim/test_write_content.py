"""Content-store bytes after writes, pinned byte for byte.

The Fig. 10 result digests cover throughput and ``intact`` only, so
these digests are what guard the bytes a write installs: the fresh
payloads, the cells its plan stores and the generator state it leaves
behind (each digest also takes the next draw).  Run the file as a
script to print the current digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.errors import LayoutError
from repro.core.registry import REGISTRY, build_layout
from repro.raidsim.controller import RaidController
from repro.raidsim.degraded import DegradedArray
from repro.workloads.generator import WriteOp, random_large_writes

N_STRIPES = 3


def _layouts():
    """``(name, n, layout)`` for every registry layout at every accepted n in 2..7."""
    for name in REGISTRY:
        for n in range(2, 8):
            try:
                yield name, n, build_layout(name, n)
            except (LayoutError, ValueError):
                continue


def _ops(layout, rng) -> list[WriteOp]:
    """Twelve Fig. 10 writes, two scattered out-of-order writes and one
    naming an element twice (the later payload must win)."""
    ops = random_large_writes(layout.n, N_STRIPES, n_ops=12, rng=rng, rows=layout.data_rows)
    n_cells = layout.n * layout.data_rows
    for _ in range(2):
        k = int(rng.integers(1, n_cells + 1))
        picks = rng.choice(n_cells, size=k, replace=False)
        cells = tuple((int(e) % layout.n, int(e) // layout.n) for e in picks)
        ops.append(WriteOp(int(rng.integers(0, N_STRIPES)), cells))
    last = layout.n - 1, layout.data_rows - 1
    ops.append(WriteOp(N_STRIPES - 1, (last, (0, 0), last)))
    return ops


def post_write_digest(payload_bytes: int, strategy: str, window: int) -> str:
    """sha256 over the content store after a write workload, then the
    generator's next draw, for every registry layout at n in 2..7."""
    h = hashlib.sha256()
    for name, n, layout in _layouts():
        ctrl = RaidController(
            layout, n_stripes=N_STRIPES, payload_bytes=payload_bytes, tracer=False
        )
        rng = np.random.default_rng(n)
        ops = _ops(layout, rng)
        ctrl.run_write_workload(ops, strategy=strategy, window=window, rng=rng)
        h.update(f"{name}/{n}".encode())
        h.update(ctrl.content.tobytes())
        h.update(rng.bytes(8))
    return h.hexdigest()


def degraded_digest(payload_bytes: int) -> str:
    """sha256 over the content store after degraded writes, after the
    resync, and the generator's next draw, for every layout
    :class:`DegradedArray` serves, with its first disk failed."""
    h = hashlib.sha256()
    for name, n, layout in _layouts():
        if not isinstance(layout, DegradedArray.SUPPORTED):
            continue
        ctrl = RaidController(
            layout, n_stripes=N_STRIPES, payload_bytes=payload_bytes, tracer=False
        )
        deg = DegradedArray(ctrl, [0])
        rng = np.random.default_rng(n)
        for op in _ops(layout, rng):
            deg.write(op, rng=rng)
        h.update(f"{name}/{n}".encode())
        h.update(ctrl.content.tobytes())
        result = deg.resync()
        h.update(f"{result.verified}".encode())
        h.update(ctrl.content.tobytes())
        h.update(rng.bytes(8))
    return h.hexdigest()


#: (payload bytes, strategy, window) -> digest; with one op in flight
#: the strategy changes only which cells are read, never the bytes
GOLDEN_POST_WRITE = {
    (1, "rmw", 1): "17f273de84463f44b994f346d8349bc0f17b65913688b67f615d3f0c44267db8",
    (1, "rmw", 4): "fd90d070f537f85840c73e24659f5dc0569c68f12234f5b50b9cdbae25009fb0",
    (1, "reconstruct", 1): "17f273de84463f44b994f346d8349bc0f17b65913688b67f615d3f0c44267db8",
    (1, "reconstruct", 4): "6f9fb19be47889e762d62524a026d4486cba4700df83c82dd3f576a7d0434602",
    (7, "rmw", 1): "da7577f8ac36ba88fc7e26cd00161aa24581b7b8cfd6de995a02452102d18674",
    (7, "rmw", 4): "8aca1ece3025753b80ef6941a17f45f1092f5d475df1edcb100c317b237c4257",
    (7, "reconstruct", 1): "da7577f8ac36ba88fc7e26cd00161aa24581b7b8cfd6de995a02452102d18674",
    (7, "reconstruct", 4): "464f6cecb28a130e525e43395d3f0c6ed984e67dac924ff327db841c915a4270",
    (16, "rmw", 1): "d40ec592358fb187110195ead76ee60b1b2777fcefd24a74fced51b21f6e36a8",
    (16, "rmw", 4): "febe2d9dfd1589052588da962463d8cbcdb9f6cfa8cfd86b3396f29c48421592",
    (16, "reconstruct", 1): "d40ec592358fb187110195ead76ee60b1b2777fcefd24a74fced51b21f6e36a8",
    (16, "reconstruct", 4): "165af9e610071dd408fa26388b8d3d21a9b7c059057923363852ddb361951743",
}

GOLDEN_DEGRADED = {
    1: "fe425561267ff52c0d6417304cc83fd6d871a4d8c38aa8307541bdf20ef8364a",
    7: "0f95aecc18ec50c30b2de583d4d16027e8fc09e1ede6502cf567a45356403f85",
    16: "923374a322b42aa14b6dff420a5d900e4f88626acc9163cb85f51910a43c9fde",
}


@pytest.mark.parametrize(
    "case", sorted(GOLDEN_POST_WRITE), ids=lambda c: f"{c[0]}B-{c[1]}-w{c[2]}"
)
def test_post_write_content_golden_digest(case):
    assert post_write_digest(*case) == GOLDEN_POST_WRITE[case]


@pytest.mark.parametrize("payload_bytes", sorted(GOLDEN_DEGRADED), ids=lambda p: f"{p}B")
def test_degraded_write_then_resync_golden_digest(payload_bytes):
    assert degraded_digest(payload_bytes) == GOLDEN_DEGRADED[payload_bytes]


if __name__ == "__main__":
    print("GOLDEN_POST_WRITE = {")
    for payload in (1, 7, 16):
        for strategy in ("rmw", "reconstruct"):
            for window in (1, 4):
                case = (payload, strategy, window)
                print(f"    {case!r}: {post_write_digest(*case)!r},")
    print("}")
    print("GOLDEN_DEGRADED = {")
    for payload in (1, 7, 16):
        print(f"    {payload}: {degraded_digest(payload)!r},")
    print("}")
