"""Element arrangements: the paper's formulas, bijectivity, iteration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrangement import (
    IdentityArrangement,
    IteratedArrangement,
    PermutationArrangement,
    ShiftedArrangement,
    transform_once,
)


# ----------------------------------------------------------------------
# the paper's defining formulas (§IV-A)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_shifted_forward_formula(n):
    """a[i, j] = b[<i+j>_n, i]."""
    arr = ShiftedArrangement(n)
    for i in range(n):
        for j in range(n):
            assert arr.mirror_location(i, j) == ((i + j) % n, i)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_shifted_inverse_formula(n):
    """b[i, j] = a[j, <i-j>_n]."""
    arr = ShiftedArrangement(n)
    for mi in range(n):
        for mj in range(n):
            assert arr.data_location(mi, mj) == (mj, (mi - mj) % n)


def test_shifted_matches_paper_fig3_example():
    """Fig. 3, n=3: data disk 0 holds elements 1, 4, 7 (rows 0, 1, 2);
    their replicas land on mirror disks 0, 1, 2 respectively."""
    arr = ShiftedArrangement(3)
    assert [arr.mirror_location(0, j)[0] for j in range(3)] == [0, 1, 2]
    # first row goes onto the main diagonal (paper Fig. 5)
    for i in range(3):
        disk, row = arr.mirror_location(i, 0)
        assert disk == i and row == i


def test_identity_is_plain_copy():
    arr = IdentityArrangement(4)
    for i in range(4):
        for j in range(4):
            assert arr.mirror_location(i, j) == (i, j)
            assert arr.data_location(i, j) == (i, j)


# ----------------------------------------------------------------------
# bijection and inverse consistency
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 10])
def test_shifted_is_bijective_roundtrip(n):
    arr = ShiftedArrangement(n)
    seen = set()
    for i in range(n):
        for j in range(n):
            m = arr.mirror_location(i, j)
            assert m not in seen
            seen.add(m)
            assert arr.data_location(*m) == (i, j)
    assert len(seen) == n * n


def test_out_of_range_indices_rejected():
    arr = ShiftedArrangement(3)
    with pytest.raises(IndexError):
        arr.mirror_location(3, 0)
    with pytest.raises(IndexError):
        arr.mirror_location(0, -1)


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        ShiftedArrangement(0)


def test_non_bijective_permutation_rejected():
    mapping = {(i, j): (0, 0) for i in range(2) for j in range(2)}
    with pytest.raises(ValueError, match="not a bijection"):
        PermutationArrangement(2, mapping)


def test_permutation_from_array_and_dict_agree():
    n = 3
    base = ShiftedArrangement(n)
    as_dict = {
        (i, j): base.mirror_location(i, j) for i in range(n) for j in range(n)
    }
    arr_mat = np.zeros((n, n, 2), dtype=np.int64)
    for (i, j), m in as_dict.items():
        arr_mat[i, j] = m
    assert PermutationArrangement(n, as_dict) == PermutationArrangement(n, arr_mat)


def test_permutation_bad_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        PermutationArrangement(3, np.zeros((2, 2, 2)))


# ----------------------------------------------------------------------
# equality / hashing
# ----------------------------------------------------------------------


def test_equality_is_by_mapping_not_type():
    n = 4
    shifted = ShiftedArrangement(n)
    clone = PermutationArrangement(
        n, {(i, j): shifted.mirror_location(i, j) for i in range(n) for j in range(n)}
    )
    assert shifted == clone
    assert hash(shifted) == hash(clone)
    assert shifted != IdentityArrangement(n)


def test_different_sizes_never_equal():
    assert ShiftedArrangement(3) != ShiftedArrangement(4)


# ----------------------------------------------------------------------
# derived views
# ----------------------------------------------------------------------


def test_mirror_layout_labels_inverse_view():
    arr = ShiftedArrangement(4)
    labels = arr.mirror_layout_labels()
    for mi in range(4):
        for mj in range(4):
            i, j = labels[mi, mj]
            assert arr.mirror_location(int(i), int(j)) == (mi, mj)


def test_replica_and_source_disk_views():
    arr = ShiftedArrangement(5)
    assert sorted(arr.replica_disks_of_data_disk(2)) == list(range(5))
    assert sorted(arr.source_disks_of_mirror_disk(3)) == list(range(5))
    assert sorted(arr.replica_disks_of_data_row(1)) == list(range(5))


# ----------------------------------------------------------------------
# the transformation function and its iterates (§VI-E)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_iterate_one_is_the_shifted_arrangement(n):
    assert IteratedArrangement(n, 1) == ShiftedArrangement(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iterate_zero_is_identity(n):
    assert IteratedArrangement(n, 0) == IdentityArrangement(n)


def test_transform_once_composes():
    n = 3
    one = transform_once(IdentityArrangement(n))
    two = transform_once(one)
    assert one == IteratedArrangement(n, 1)
    assert two == IteratedArrangement(n, 2)


def test_negative_iterations_rejected():
    with pytest.raises(ValueError):
        IteratedArrangement(3, -1)


def test_transform_has_finite_order():
    """Iterating T must eventually return to the identity (it permutes
    a finite set); for n=3 the order is small enough to find directly."""
    n = 3
    ident = IdentityArrangement(n)
    order = None
    for k in range(1, 50):
        if IteratedArrangement(n, k) == ident:
            order = k
            break
    assert order is not None
    # and iterates repeat with that period
    assert IteratedArrangement(n, order + 1) == IteratedArrangement(n, 1)


@given(n=st.integers(2, 6), k=st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_iterates_are_always_bijections(n, k):
    arr = IteratedArrangement(n, k)
    cells = {arr.mirror_location(i, j) for i in range(n) for j in range(n)}
    assert len(cells) == n * n
