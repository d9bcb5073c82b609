"""RDP: geometry, diagonal algebra, exhaustive double-erasure decode
through its parity equations."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.rdp import RDP
from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import RAID6Layout
from tests.codes.conftest import decode_columns, horizontal_block

GEOMETRIES = [(3, 2), (5, 4), (5, 2), (7, 6), (7, 3), (11, 9)]


def _stripe(rng, p, n, size=8):
    return rng.integers(0, 256, (p - 1, n, size)).astype(np.uint8)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def test_rejects_non_prime_p():
    with pytest.raises(ValueError, match="odd prime"):
        RDP(6)


def test_rejects_bad_shortening():
    with pytest.raises(ValueError, match="1 <= n <= p-1"):
        RDP(5, 5)  # RDP fits at most p-1 data columns
    with pytest.raises(ValueError, match="1 <= n <= p-1"):
        RDP(5, 0)


def test_geometry():
    code = RDP(7, 5)
    assert code.rows == 6
    assert code.n == 5


# ----------------------------------------------------------------------
# encoding algebra
# ----------------------------------------------------------------------


def test_row_parity_is_row_xor(rng):
    code = RDP(5, 4)
    data = _stripe(rng, 5, 4)
    P, _ = code.encode(data)
    assert np.array_equal(P, np.bitwise_xor.reduce(data, axis=1))


def test_diagonal_parity_includes_row_parity_column(rng):
    """RDP's diagonals run over data AND row-parity columns."""
    p, n = 5, 4
    code = RDP(p, n)
    data = _stripe(rng, p, n)
    P, Q = code.encode(data)
    size = data.shape[2]
    for d in range(p - 1):
        acc = np.zeros(size, dtype=np.uint8)
        for j in range(p):  # includes column p-1 == row parity
            row = (d - j) % p
            if row == p - 1:
                continue
            if j == p - 1:
                acc ^= P[row]
            elif j < n:
                acc ^= data[row, j]
        assert np.array_equal(Q[d], acc)


def test_missing_diagonal_not_stored(rng):
    """Diagonal p-1 has no parity: Q has exactly p-1 rows."""
    code = RDP(7, 6)
    data = _stripe(rng, 7, 6)
    _, Q = code.encode(data)
    assert Q.shape[0] == 6


def test_shortened_matches_zero_padded(rng):
    p = 7
    short = RDP(p, 3)
    full = RDP(p, p - 1)
    data = _stripe(rng, p, 3)
    padded = np.concatenate(
        [data, np.zeros((p - 1, p - 1 - 3, data.shape[2]), dtype=np.uint8)], axis=1
    )
    ps, qs = short.encode(data)
    pf, qf = full.encode(padded)
    assert np.array_equal(ps, pf)
    assert np.array_equal(qs, qf)


# ----------------------------------------------------------------------
# decoding — through the equations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p,n", GEOMETRIES)
def test_decode_every_single_and_double_erasure(p, n, rng):
    code = RDP(p, n)
    block = horizontal_block(code, _stripe(rng, p, n))
    patterns = list(combinations(range(n + 2), 1)) + list(combinations(range(n + 2), 2))
    for lost in patterns:
        assert np.array_equal(decode_columns(code, block, lost), block), lost


def test_decode_rejects_triple_erasure(rng):
    code = RDP(5, 4)
    block = horizontal_block(code, _stripe(rng, 5, 4))
    with pytest.raises(UnrecoverableFailureError, match="do not determine"):
        decode_columns(code, block, (0, 1, 4))


def test_decode_rejects_wrong_column_count():
    layout = RAID6Layout(4, "rdp")
    with pytest.raises(ValueError, match="stripe block"):
        layout.decode(np.zeros((layout.n_disks - 1, layout.rows, 8), np.uint8), ())


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_random_content_random_double_erasure(seed):
    rng = np.random.default_rng(seed)
    p, n = 11, 10
    code = RDP(p, n)
    block = horizontal_block(code, _stripe(rng, p, n, size=4))
    lost = sorted(rng.choice(n + 2, size=2, replace=False).tolist())
    assert np.array_equal(decode_columns(code, block, lost), block)
