"""Stripe geometry and global disk addressing."""

from __future__ import annotations

import pytest

from repro.core.stripe import ArrayKind, StripeGeometry


def _arrays(g: StripeGeometry) -> set[ArrayKind]:
    return {g.locate_disk(gd)[0] for gd in range(g.n_disks)}


def test_mirror_geometry_counts():
    g = StripeGeometry(5)
    assert g.n_disks == 10


def test_mirror_parity_geometry_counts():
    g = StripeGeometry(5, has_parity=True)
    assert g.n_disks == 11


def test_three_mirror_geometry_counts():
    g = StripeGeometry(4, n_mirror_arrays=2)
    assert g.n_disks == 12


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        StripeGeometry(0)
    with pytest.raises(ValueError):
        StripeGeometry(3, n_mirror_arrays=3)


@pytest.mark.parametrize(
    "n,has_parity,mirrors", [(3, False, 1), (3, True, 1), (4, False, 2), (5, True, 2)]
)
def test_global_disk_roundtrip(n, has_parity, mirrors):
    g = StripeGeometry(n, n_mirror_arrays=mirrors, has_parity=has_parity)
    located = [g.locate_disk(gd) for gd in range(g.n_disks)]
    # every global id names a distinct disk, each array numbered 0..n-1
    assert len(set(located)) == g.n_disks
    for array in (ArrayKind.DATA, ArrayKind.MIRROR):
        assert [d for a, d in located if a is array] == list(range(n))
    assert sum(a is ArrayKind.MIRROR2 for a, _ in located) == (n if mirrors == 2 else 0)
    assert [d for a, d in located if a is ArrayKind.PARITY] == ([0] if has_parity else [])


def test_global_disk_ordering_data_then_mirror_then_parity():
    g = StripeGeometry(3, has_parity=True)
    assert g.locate_disk(0) == (ArrayKind.DATA, 0)
    assert g.locate_disk(3) == (ArrayKind.MIRROR, 0)
    assert g.locate_disk(6) == (ArrayKind.PARITY, 0)


def test_parity_access_without_parity_rejected():
    g = StripeGeometry(3)
    assert ArrayKind.PARITY not in _arrays(g)


def test_parity_disk_index_must_be_zero():
    g = StripeGeometry(3, has_parity=True)
    assert g.locate_disk(g.n_disks - 1) == (ArrayKind.PARITY, 0)


def test_second_mirror_requires_two_arrays():
    assert _arrays(StripeGeometry(3)) == {ArrayKind.DATA, ArrayKind.MIRROR}
    assert ArrayKind.MIRROR2 in _arrays(StripeGeometry(3, n_mirror_arrays=2))


def test_disk_index_bounds():
    g = StripeGeometry(3)
    with pytest.raises(IndexError):
        g.locate_disk(6)
    with pytest.raises(IndexError):
        g.locate_disk(-1)
