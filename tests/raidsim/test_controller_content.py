"""Controller content store: initialization, placement, redundancy checks."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.layouts import (
    RAID5Layout,
    RAID6Layout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror_parity,
)
from repro.core.errors import LayoutError
from repro.core.registry import REGISTRY, build_layout
from repro.raidsim.controller import RaidController


def _ctrl(layout, **kw):
    kw.setdefault("n_stripes", 3)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, **kw)


@pytest.mark.parametrize(
    "layout_factory",
    [
        lambda: shifted_mirror(3),
        lambda: shifted_mirror_parity(3),
        lambda: traditional_mirror_parity(4),
        lambda: RAID5Layout(4),
        lambda: RAID6Layout(4, "evenodd"),
        lambda: RAID6Layout(4, "rdp"),
    ],
)
def test_initial_content_satisfies_redundancy(layout_factory):
    assert _ctrl(layout_factory()).verify_redundancy()


def test_data_elements_come_from_film():
    ctrl = _ctrl(shifted_mirror(3))
    want = ctrl.film.element(1, 2, 0)
    got = ctrl.element_content(1, ctrl.layout.data_cell(2, 0))
    assert np.array_equal(got, want)


def test_replicas_equal_their_data():
    ctrl = _ctrl(shifted_mirror(4))
    lay = ctrl.layout
    for stripe in range(ctrl.n_stripes):
        for i in range(4):
            for j in range(4):
                data = ctrl.element_content(stripe, lay.data_cell(i, j))
                (rep_cell,) = lay.replica_cells(i, j)
                rep = ctrl.element_content(stripe, rep_cell)
                assert np.array_equal(data, rep)


def test_parity_column_is_row_xor():
    ctrl = _ctrl(shifted_mirror_parity(3))
    lay = ctrl.layout
    for stripe in range(ctrl.n_stripes):
        for j in range(3):
            want = np.zeros(8, dtype=np.uint8)
            for i in range(3):
                want ^= ctrl.element_content(stripe, lay.data_cell(i, j))
            got = ctrl.element_content(stripe, lay.parity_cell(j))
            assert np.array_equal(got, want)


def test_rotation_moves_physical_placement():
    ctrl = _ctrl(shifted_mirror(3), rotate=True, n_stripes=6)
    # logical disk 0 of stripe 2 lives on physical disk 2
    pd, slot = ctrl.place(2, (0, 1))
    assert pd == 2
    assert slot == 2 * 3 + 1
    assert ctrl.verify_redundancy()  # content placed consistently


def _kind_cells():
    """``(registry name, cell kind, first (disk, row) of that kind)`` at n=5."""
    out = []
    for name in REGISTRY:
        lay = build_layout(name, 5)
        first = {}
        for disk in range(lay.n_disks):
            for row in range(lay.rows):
                first.setdefault(lay.content(disk, row).kind, (disk, row))
        out += [pytest.param(name, cell, id=f"{name}-{kind}") for kind, cell in first.items()]
    return out


@pytest.mark.parametrize("name, cell", _kind_cells())
@pytest.mark.parametrize("rotate", [False, True], ids=["fixed", "rotated"])
def test_corruption_detected_by_verify(name, cell, rotate):
    ctrl = _ctrl(build_layout(name, 5), n_stripes=2, rotate=rotate)
    assert ctrl.verify_redundancy()
    pd, slot = ctrl.place(1, cell)
    ctrl.content[pd, slot, 3] ^= 0x40
    assert not ctrl.verify_redundancy()


def test_same_seed_same_film():
    a = _ctrl(shifted_mirror(3), film_seed=99)
    b = _ctrl(shifted_mirror(3), film_seed=99)
    assert np.array_equal(a.content, b.content)
    c = _ctrl(shifted_mirror(3), film_seed=100)
    assert not np.array_equal(a.content, c.content)


def content_store_digest(n_stripes: int, payload_bytes: int) -> str:
    """sha256 over the initial content store of every registry layout at
    every accepted n in 2..7, with and without rotation."""
    h = hashlib.sha256()
    for name in REGISTRY:
        for n in range(2, 8):
            try:
                layout = build_layout(name, n)
            except (LayoutError, ValueError):
                continue
            for rotate in (False, True):
                ctrl = RaidController(
                    layout,
                    n_stripes=n_stripes,
                    payload_bytes=payload_bytes,
                    rotate=rotate,
                    tracer=False,
                )
                h.update(f"{name}/{n}/{rotate}".encode())
                h.update(ctrl.content.tobytes())
    return h.hexdigest()


GOLDEN_STORES = {
    (1, 1): "21aeb170e37fd8caa6a3e8f7bdba32e1780019cbc23717941dbe78c737ab5fd6",
    (3, 7): "1fee7ac357ec097e9463b4ae452a8a2948e41d13705aae2e4418301088be3e56",
    (9, 16): "976b5f3793d3d1545a2fa290d70e1f2082142becb54fb01db3f6e771894f1a4e",
    (13, 64): "b591974471918f12a05b07254b62edcdfef8401e04ab09dd82e25089511e1648",
}


@pytest.mark.parametrize("size", sorted(GOLDEN_STORES), ids=lambda s: f"{s[0]}x{s[1]}B")
def test_content_store_golden_digest(size):
    """Initial stores are pinned byte for byte across every layout."""
    assert content_store_digest(*size) == GOLDEN_STORES[size]


if __name__ == "__main__":
    for size in [(1, 1), (3, 7), (9, 16), (13, 64)]:
        print(f"    {size!r}: {content_store_digest(*size)!r},")
