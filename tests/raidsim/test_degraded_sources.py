"""degraded_read_sources invariants, parametrized over layouts x failures.

Every source set returned must (1) avoid every failed disk, (2) be the
cheapest surviving path in the module's documented cascade, and (3)
actually determine the requested element — a replica carries it
verbatim, a parity path XORs to it, the RAID 6 fallback decodes it.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrangement import PermutationArrangement, ShiftedArrangement
from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import (
    RAID5Layout,
    RAID6Layout,
    ThreeMirrorLayout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.raidsim.reconstruction import degraded_read_sources


def _rev(n):
    return PermutationArrangement(
        n, {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
    )


LAYOUTS = [
    pytest.param(lambda: traditional_mirror(4), id="mirror"),
    pytest.param(lambda: shifted_mirror(4), id="shifted-mirror"),
    pytest.param(lambda: traditional_mirror_parity(4), id="mirror-parity"),
    pytest.param(lambda: shifted_mirror_parity(4), id="shifted-mirror-parity"),
    pytest.param(lambda: ThreeMirrorLayout(4), id="three-mirror"),
    pytest.param(
        lambda: ThreeMirrorLayout(4, ShiftedArrangement(4), _rev(4)),
        id="shifted-three-mirror",
    ),
    pytest.param(lambda: RAID5Layout(4), id="raid5"),
    pytest.param(lambda: RAID6Layout(4, "rdp"), id="raid6-rdp"),
]


def _failure_sets(layout):
    """All failure sets within the layout's tolerance (plus empty)."""
    disks = range(layout.n_disks)
    sets = [set()]
    sets += [{d} for d in disks]
    if layout.fault_tolerance >= 2:
        sets += [set(p) for p in itertools.combinations(disks, 2)]
    return sets


def _elements(layout):
    return [(i, j) for i in range(layout.n) for j in range(layout.rows)]


@pytest.mark.parametrize("make", LAYOUTS)
def test_sources_never_touch_a_failed_disk(make):
    layout = make()
    for failed in _failure_sets(layout):
        for i, j in _elements(layout):
            sources = degraded_read_sources(layout, failed, i, j)
            assert sources, f"empty source set for ({i},{j}) under {failed}"
            hit = [c for c in sources if c[0] in failed]
            assert not hit, f"({i},{j}) under {failed} reads failed {hit}"


@pytest.mark.parametrize("make", LAYOUTS)
def test_surviving_primary_is_always_the_single_source(make):
    layout = make()
    for failed in _failure_sets(layout):
        for i, j in _elements(layout):
            if i in failed:
                continue
            assert degraded_read_sources(layout, failed, i, j) == [(i, j)]


@pytest.mark.parametrize("make", LAYOUTS)
def test_surviving_replica_beats_the_parity_path(make):
    layout = make()
    if not hasattr(layout, "replica_cells"):
        pytest.skip("no replicas in this layout")
    for failed in _failure_sets(layout):
        for i, j in _elements(layout):
            if i not in failed:
                continue
            live = [c for c in layout.replica_cells(i, j) if c[0] not in failed]
            if not live:
                continue
            sources = degraded_read_sources(layout, failed, i, j)
            assert len(sources) == 1
            assert sources[0] in live
            # the replica really holds a copy of a[i, j]
            c = layout.content(*sources[0])
            assert (c.kind, c.i, c.j) == ("replica", i, j)


@pytest.mark.parametrize("make", LAYOUTS)
def test_source_set_determines_the_element(make):
    """XOR-path source sets are exactly row-survivors + parity."""
    layout = make()
    for failed in _failure_sets(layout):
        for i, j in _elements(layout):
            sources = degraded_read_sources(layout, failed, i, j)
            if len(sources) == 1:
                c = layout.content(*sources[0])
                assert c.kind in ("data", "replica") and (c.i, c.j) == (i, j)
            elif (
                isinstance(layout, RAID6Layout)
                and len(sources) == (layout.n_disks - len(failed)) * layout.rows
            ):
                # generic decode: every intact element of the stripe
                intact = {
                    (d, r)
                    for d in range(layout.n_disks)
                    if d not in failed
                    for r in range(layout.rows)
                }
                assert set(sources) == intact
            else:
                # XOR path: the row's survivors plus its parity element
                row = {(ii, j) for ii in range(layout.n) if ii != i}
                assert set(sources) == row | {layout.parity_cell(j)}


def test_mirror_overlap_is_the_only_unrecoverable_pair():
    layout = shifted_mirror(4)
    for failed in itertools.combinations(range(layout.n_disks), 2):
        overlapping = [
            (i, j)
            for i, j in _elements(layout)
            if {i, layout.mirror_cell(i, j)[0]} <= set(failed)
        ]
        for i, j in _elements(layout):
            if (i, j) in overlapping:
                with pytest.raises(UnrecoverableFailureError):
                    degraded_read_sources(layout, set(failed), i, j)
            else:
                degraded_read_sources(layout, set(failed), i, j)


@given(
    n=st.integers(3, 6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_shifted_mirror_parity_survives_any_double_failure(n, data):
    layout = shifted_mirror_parity(n)
    failed = set(
        data.draw(
            st.lists(
                st.integers(0, layout.n_disks - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
    )
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    sources = degraded_read_sources(layout, failed, i, j)
    assert sources
    assert all(c[0] not in failed for c in sources)
