"""Properties 1-3: the paper's proved guarantees and their failures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrangement import (
    IdentityArrangement,
    IteratedArrangement,
    PermutationArrangement,
    ShiftedArrangement,
)
from repro.core.properties import (
    property_report,
    satisfies_property1,
    satisfies_property2,
    satisfies_property3,
)


@pytest.mark.parametrize("n", range(1, 10))
def test_shifted_satisfies_all_three_properties(n):
    """The paper's §IV-B and §VI-C proofs, checked for every n."""
    arr = ShiftedArrangement(n)
    assert satisfies_property1(arr)
    assert satisfies_property2(arr)
    assert satisfies_property3(arr)
    assert all(property_report(arr).values())


@pytest.mark.parametrize("n", range(2, 8))
def test_identity_fails_p1_p2_but_keeps_p3(n):
    """Traditional mirroring: a data disk's replicas all co-locate
    (no P1/P2), but a data row still spreads across mirror disks (P3)."""
    arr = IdentityArrangement(n)
    assert not satisfies_property1(arr)
    assert not satisfies_property2(arr)
    assert satisfies_property3(arr)
    assert not all(property_report(arr).values())


def test_identity_trivially_powerful_when_single_disk():
    arr = IdentityArrangement(1)
    assert all(property_report(arr).values())


def test_property_report_keys():
    rep = property_report(ShiftedArrangement(3))
    assert rep == {"P1": True, "P2": True, "P3": True}


# ----------------------------------------------------------------------
# the paper's Fig. 8 claims for n = 3
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5])
def test_odd_iterates_satisfy_p1_p2_at_n3(k):
    arr = IteratedArrangement(3, k)
    assert satisfies_property1(arr)
    assert satisfies_property2(arr)


def test_third_iterate_violates_p3_fifth_satisfies_it():
    assert not satisfies_property3(IteratedArrangement(3, 3))
    assert satisfies_property3(IteratedArrangement(3, 5))


def test_odd_iterate_claim_is_n3_specific():
    """§VI-E states odd iterates keep P1/P2; exhaustive checking shows
    this holds at n=3 (the paper's figure) and for n=7, but *fails* at
    n=2, 4, 5, 6 for some odd k — the claim is figure-specific, which
    is exactly why the paper adds 'we have to check the arrangements
    carefully'.  This test pins the measured reality so a regression in
    either direction is caught."""
    expected_p1 = {
        (2, 3): False,
        (3, 3): True,
        (4, 3): False,
        (5, 5): False,
        (6, 3): False,
        (7, 3): True,
        (7, 5): True,
    }
    for (n, k), want in expected_p1.items():
        arr = IteratedArrangement(n, k)
        assert satisfies_property1(arr) == want, (n, k)
        assert satisfies_property2(arr) == want, (n, k)


# ----------------------------------------------------------------------
# structural equivalences
# ----------------------------------------------------------------------


@given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_p1_equivalent_to_p2_for_any_bijection(n, seed):
    """For a bijective arrangement, P1 and P2 are equivalent: both say
    the disk-to-disk transfer matrix is a permutation-doubly-stochastic
    0/1 matrix (each data disk hits each mirror disk exactly once)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n) for j in range(n)]
    perm = rng.permutation(len(cells))
    mapping = {cells[a]: cells[int(b)] for a, b in zip(range(len(cells)), perm)}
    arr = PermutationArrangement(n, mapping)
    assert satisfies_property1(arr) == satisfies_property2(arr)


def test_reverse_shift_is_also_equally_powerful():
    """The inverse-shift twin used by the shifted three-mirror layout."""
    for n in range(1, 8):
        arr = PermutationArrangement(
            n, {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
        )
        assert all(property_report(arr).values())


def test_row_swap_of_shifted_loses_p3_keeps_p1():
    """Moving one replica within its mirror disk cannot break P1/P2;
    swapping two replicas *across* mirror disks in the same row breaks
    P3's 'one per disk' only if it creates a collision — build one."""
    n = 3
    base = ShiftedArrangement(n)
    mapping = {
        (i, j): base.mirror_location(i, j) for i in range(n) for j in range(n)
    }
    # Send both (0, 0) and (1, 0)'s replicas onto mirror disk 1 by
    # swapping full column assignments of data disks 0 and 1 for row 0
    # against row 1:
    mapping[(0, 0)], mapping[(0, 1)] = mapping[(0, 1)], mapping[(0, 0)]
    arr = PermutationArrangement(n, mapping)
    # data disk 0 still spreads over all mirror disks (its own replicas
    # merely swapped targets), so P1 holds for disk 0...
    assert sorted(arr.replica_disks_of_data_disk(0)) == list(range(n))
    # ...but row 0 now hits mirror disk 1 twice: P3 broken.
    assert not satisfies_property3(arr)
