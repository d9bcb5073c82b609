"""Rotated stacks: logical/physical mapping and placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layouts import shifted_mirror, shifted_mirror_parity
from repro.core.stack import RotatedStack


def test_default_stack_has_one_stripe_per_disk():
    lay = shifted_mirror_parity(3)
    stack = RotatedStack(lay)
    assert stack.n_stripes == lay.n_disks == 7


def test_rotation_roundtrip():
    stack = RotatedStack(shifted_mirror(4), n_stripes=8)
    for s in range(8):
        for l in range(stack.n_disks):
            p, _ = stack.place(s, l, 0)
            assert stack.logical_disk(s, p) == l


def test_rotation_shifts_by_stripe_index():
    stack = RotatedStack(shifted_mirror(3), n_stripes=6)
    assert stack.place(0, 2, 0)[0] == 2
    assert stack.place(1, 2, 0)[0] == 3
    assert stack.place(5, 5, 0)[0] == (5 + 5) % 6


def test_no_rotation_mode_is_identity():
    stack = RotatedStack(shifted_mirror(3), n_stripes=4, rotate=False)
    for s in range(4):
        for d in range(6):
            assert stack.place(s, d, 0)[0] == d
            assert stack.logical_disk(s, d) == d


def test_bounds_checked():
    stack = RotatedStack(shifted_mirror(3), n_stripes=2)
    with pytest.raises(IndexError):
        stack.place(2, 0, 0)
    with pytest.raises(IndexError):
        stack.place(0, 6, 0)
    with pytest.raises(IndexError):
        stack.element_offset(0, 3)
    with pytest.raises(ValueError):
        RotatedStack(shifted_mirror(3), n_stripes=0)


def test_element_offsets_are_per_stripe_contiguous():
    lay = shifted_mirror(4)
    stack = RotatedStack(lay, n_stripes=3)
    assert stack.element_offset(0, 0) == 0
    assert stack.element_offset(0, 3) == 3
    assert stack.element_offset(1, 0) == 4
    assert stack.element_offset(2, 3) == 11


def test_place_combines_rotation_and_offset():
    lay = shifted_mirror(3)
    stack = RotatedStack(lay, n_stripes=6)
    disk, slot = stack.place(2, 1, 0)
    assert disk == (1 + 2) % 6
    assert slot == 2 * 3


def test_full_stack_covers_every_logical_role():
    lay = shifted_mirror_parity(3)
    stack = RotatedStack(lay)
    # physical disk 0 plays every logical role across the stack
    roles = {stack.logical_disk(s, 0) for s in range(stack.n_stripes)}
    assert roles == set(range(lay.n_disks))


def test_partial_or_unrotated_stack_does_not_cover():
    lay = shifted_mirror(3)
    for stack in (RotatedStack(lay, n_stripes=3), RotatedStack(lay, rotate=False)):
        roles = {stack.logical_disk(s, 0) for s in range(stack.n_stripes)}
        assert roles != set(range(lay.n_disks))


def test_logical_failures_enumeration():
    lay = shifted_mirror(3)
    stack = RotatedStack(lay, n_stripes=6)
    cases = [
        tuple(sorted(stack.logical_disk(s, f) for f in (0, 1)))
        for s in range(stack.n_stripes)
    ]
    assert len(cases) == 6
    # stripe 0: identity; later stripes rotate backwards
    assert cases[0] == (0, 1)
    assert cases[1] == (0, 5)  # (0-1)%6=5, (1-1)%6=0 -> sorted
    for case in cases:
        assert len(case) == 2


@pytest.mark.parametrize("rotate", [False, True])
def test_cells_and_placement_agree_with_place(rotate):
    lay = shifted_mirror_parity(3)
    stack = RotatedStack(lay, n_stripes=5, rotate=rotate)
    store = np.arange(lay.n_disks * stack.n_stripes * lay.rows).reshape(lay.n_disks, -1)
    by_stripe = store.reshape(lay.n_disks, stack.n_stripes, lay.rows)[stack.placement]
    for s in range(stack.n_stripes):
        disks, slots = stack.cells(s)
        assert not disks.flags.writeable and not slots.flags.writeable
        want = [[store[stack.place(s, d, r)] for r in range(lay.rows)] for d in range(lay.n_disks)]
        assert store[disks, slots].tolist() == want
        assert by_stripe[:, s].tolist() == want
    with pytest.raises(IndexError):
        stack.cells(stack.n_stripes)
