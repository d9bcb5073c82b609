"""The erasure-code layouts' parity equations and the one decoder over them.

Each code layout declares sets of cells whose bytes XOR to zero;
:meth:`Layout.decode` solves them for the cells of the lost columns.
The equations are checked against the codecs' encoders, and the decoder
against random stripes of random geometry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import RAID6Layout, RebuildOptimalRDPLayout, XCodeLayout, solve

CODE_LAYOUTS = [RAID6Layout(n, code) for code in ("rdp", "evenodd") for n in range(2, 14)]
CODE_LAYOUTS += [RebuildOptimalRDPLayout(n) for n in range(2, 8)]
CODE_LAYOUTS += [XCodeLayout(p) for p in (5, 7, 11, 13)]


def _stripe(layout, size, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (layout.data_rows, layout.n, size), dtype=np.uint8)
    return data, layout.encode(data)


@given(
    layout=st.sampled_from(CODE_LAYOUTS),
    size=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_every_equation_xors_to_zero_on_encoded_stripes(layout, size, seed):
    _, block = _stripe(layout, size, seed)
    equations = layout.parity_equations()
    for eq in equations:
        assert len(set(eq)) == len(eq), eq
        disks, rows = np.array(eq).T
        assert not np.bitwise_xor.reduce(block[disks, rows], axis=0).any(), eq
    every_cell = {(d, r) for d in range(layout.n_disks) for r in range(layout.rows)}
    assert {cell for eq in equations for cell in eq} == every_cell


@given(
    layout=st.sampled_from(CODE_LAYOUTS),
    size=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 12), max_size=2, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_decode_recovers_every_tolerated_erasure(layout, size, seed, picks):
    data, block = _stripe(layout, size, seed)
    failed = sorted({p % layout.n_disks for p in picks})
    damaged = block.copy()
    damaged[failed] = 0xC3
    assert np.array_equal(layout.decode(damaged, failed), data)


@pytest.mark.parametrize(
    "layout",
    [RAID6Layout(4, "rdp"), RAID6Layout(4, "evenodd"), XCodeLayout(5)],
    ids=lambda lay: lay.name,
)
def test_three_lost_columns_are_unrecoverable(layout):
    _, block = _stripe(layout, 4, 0)
    with pytest.raises(UnrecoverableFailureError, match="do not determine"):
        layout.decode(block, (0, 1, 2))


def test_solve_recovers_single_cells_on_any_number_of_columns():
    """One data cell lost on every RAID 6 data column: each row
    equation has a single unknown."""
    layout = RAID6Layout(4, "evenodd")
    _, block = _stripe(layout, 8, 1)
    lost = {(d, d) for d in range(layout.n)}
    damaged = block.copy()
    for cell in lost:
        damaged[cell] = 0
    assert np.array_equal(solve(layout.parity_equations(), damaged, lost), block)
