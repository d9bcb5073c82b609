"""The source rule's contract, over every registry layout.

:meth:`Layout.read_sources` answers which readable cells give the bytes
of a cell.  Whatever is unavailable — whole disks, single cells or both
— every answer must avoid the unavailable cells and must really give
the bytes: the sources of a COPY, XOR or RECOMPUTE step XOR to them, and
a CODE step's sources determine them through the parity equations.  Within the
layout's tolerance every cell has an answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LayoutError
from repro.core.layouts import (
    RAID5Layout,
    XCodeLayout,
    shifted_mirror_parity,
    solve,
    traditional_mirror,
)
from repro.core.reconstruction import RecoveryMethod
from repro.core.registry import REGISTRY, build_layout


def _registry_layouts() -> list:
    """One layout per registry name and accepted n in 2..7."""
    out = []
    for name in REGISTRY:
        for n in range(2, 8):
            try:
                out.append(build_layout(name, n))
            except (LayoutError, ValueError):
                continue
    return out


LAYOUTS = _registry_layouts()
SIZE = 4


@st.composite
def _cases(draw):
    """A layout, its random stripe, and a set of unavailable cells."""
    layout = draw(st.sampled_from(LAYOUTS))
    disks = draw(st.sets(st.integers(0, layout.n_disks - 1), max_size=3))
    cells = draw(
        st.sets(
            st.tuples(st.integers(0, layout.n_disks - 1), st.integers(0, layout.rows - 1)),
            max_size=4,
        )
    )
    unavailable = cells | {(d, r) for d in disks for r in range(layout.rows)}
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (layout.data_rows, layout.n, SIZE), dtype=np.uint8)
    return layout, layout.encode(data), unavailable


@given(case=_cases())
@settings(max_examples=300, deadline=None)
def test_sources_are_readable_and_give_the_bytes(case):
    layout, block, unavailable = case
    erased = {d for d, _ in unavailable}
    for disk in range(layout.n_disks):
        for row in range(layout.rows):
            step = layout.read_sources((disk, row), unavailable)
            if step is None:
                assert len(erased) > layout.fault_tolerance, (
                    f"{layout.name}: ({disk}, {row}) lost with only {sorted(erased)} erased"
                )
                continue
            assert step.target == (disk, row)
            assert not set(step.sources) & unavailable
            if step.method is RecoveryMethod.CODE:
                unknown = {
                    (d, r) for d in range(layout.n_disks) for r in range(layout.rows)
                } - set(step.sources)
                damaged = block.copy()
                for cell in unknown:
                    damaged[cell] = 0xEE
                got = solve(layout.parity_equations(), damaged, unknown)
                assert np.array_equal(got[disk, row], block[disk, row])
            else:
                acc = np.zeros(SIZE, dtype=np.uint8)
                for d, r in step.sources:
                    acc ^= block[d, r]
                assert np.array_equal(acc, block[disk, row])


def test_preference_order():
    """A copy beats the row path, which beats nothing."""
    lay = shifted_mirror_parity(4)
    target = lay.data_cell(1, 2)
    (replica,) = lay.replica_cells(1, 2)
    step = lay.read_sources(target, {target})
    assert (step.method, step.sources) == (RecoveryMethod.COPY, (replica,))
    # replica gone too: the row path, a dead row member swapped for its replica
    mate = lay.data_cell(3, 2)
    step = lay.read_sources(target, {target, replica, mate})
    assert step.method is RecoveryMethod.XOR
    assert step.sources == (
        lay.data_cell(0, 2),
        lay.data_cell(2, 2),
        lay.replica_cells(3, 2)[0],
        lay.parity_cell(2),
    )
    # the parity cell as well: no path is left
    assert lay.read_sources(target, {target, replica, lay.parity_cell(2)}) is None
    # a parity cell recomputes from its data row
    step = lay.read_sources(lay.parity_cell(0), {lay.parity_cell(0)})
    assert step.method is RecoveryMethod.RECOMPUTE
    assert step.sources == tuple(lay.data_cell(i, 0) for i in range(4))


@pytest.mark.parametrize(
    "layout", [traditional_mirror(3), RAID5Layout(3)], ids=lambda lay: lay.name
)
def test_a_readable_cell_is_its_own_source(layout):
    cell = layout.data_cell(1, 1)
    step = layout.read_sources(cell, set())
    assert (step.method, step.sources) == (RecoveryMethod.COPY, (cell,))


def test_code_reaches_past_whole_columns():
    """Cells lost on more columns than the code tolerates are still
    decoded when the equations determine them: each X-Code chain holds
    one cell of data row 0, so a lost row 0 peels chain by chain."""
    lay = XCodeLayout(5)
    lost = {(d, 0) for d in range(4)}
    step = lay.read_sources((2, 0), lost)
    assert step.method is RecoveryMethod.CODE
    assert step.sources == tuple(
        (d, r) for d in range(5) for r in range(5) if (d, r) not in lost
    )
    # three whole columns are beyond the code
    assert lay.read_sources((2, 0), {(d, r) for d in range(3) for r in range(5)}) is None
