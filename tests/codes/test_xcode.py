"""X-Code: vertical RAID 6 — geometry, update optimality, exhaustive decode
through its parity chains."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.xcode import XCode
from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import XCodeLayout
from tests.codes.conftest import decode_columns, xcode_block

PRIMES = [5, 7, 11, 13]


def _stripe(rng, p, size=8):
    return rng.integers(0, 256, (p - 2, p, size)).astype(np.uint8)


# ----------------------------------------------------------------------
# construction and geometry
# ----------------------------------------------------------------------


def test_requires_prime_at_least_five():
    with pytest.raises(ValueError):
        XCode(4)
    with pytest.raises(ValueError):
        XCode(3)  # p-2 = 1 data row but diagonals degenerate; paper needs p >= 5
    with pytest.raises(ValueError):
        XCode(9)


def test_shapes():
    code = XCode(7)
    assert code.data_rows == 5
    rng = np.random.default_rng(0)
    data = _stripe(rng, 7)
    diag, anti = code.encode(data)
    assert diag.shape == anti.shape == (7, 8)
    assert xcode_block(code, data).shape == (7, 7, 8)
    assert len(code.equations) == 2 * 7


def test_bad_stripe_shape_rejected(rng):
    with pytest.raises(ValueError, match="shape"):
        XCode(5).encode(rng.integers(0, 256, (4, 5, 8)).astype(np.uint8))


def test_parity_definitions(rng):
    """Spot-check the defining sums against a direct loop."""
    p = 5
    code = XCode(p)
    data = _stripe(rng, p)
    diag, anti = code.encode(data)
    for i in range(p):
        d = np.zeros(8, dtype=np.uint8)
        a = np.zeros(8, dtype=np.uint8)
        for k in range(p - 2):
            d ^= data[k, (i + k + 2) % p]
            a ^= data[k, (i - k - 2) % p]
        assert np.array_equal(diag[i], d)
        assert np.array_equal(anti[i], a)


def test_update_optimality_two_parity_cells_per_element(rng):
    """Flip one data element: exactly one diagonal and one anti-diagonal
    parity cell change — X-Code is update-optimal, unlike EVENODD/RDP."""
    p = 7
    code = XCode(p)
    data = _stripe(rng, p)
    diag0, anti0 = code.encode(data)
    for k, j in [(0, 0), (2, 3), (4, 6)]:
        mutated = data.copy()
        mutated[k, j] ^= 0x5A
        diag1, anti1 = code.encode(mutated)
        d_dirty = [i for i in range(p) if not np.array_equal(diag0[i], diag1[i])]
        a_dirty = [i for i in range(p) if not np.array_equal(anti0[i], anti1[i])]
        assert len(d_dirty) == 1 and len(a_dirty) == 1
        assert d_dirty[0] == (j - k - 2) % p
        assert a_dirty[0] == (j + k + 2) % p
    assert code.elements_updated_per_write() == 3


# ----------------------------------------------------------------------
# decoding — exhaustive over column-erasure pairs, through the equations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_decode_every_single_and_double_column_erasure(p, rng):
    code = XCode(p)
    block = xcode_block(code, _stripe(rng, p))
    patterns = [(j,) for j in range(p)] + list(combinations(range(p), 2))
    for lost in patterns:
        assert np.array_equal(decode_columns(code, block, lost), block), lost


def test_decode_data_view(rng):
    """The layout's decode returns just the data block."""
    layout = XCodeLayout(5)
    data = _stripe(rng, 5)
    damaged = layout.encode(data)
    damaged[[0, 2]] = 0
    assert np.array_equal(layout.decode(damaged, (0, 2)), data)


def test_triple_erasure_rejected(rng):
    code = XCode(5)
    block = xcode_block(code, _stripe(rng, 5))
    with pytest.raises(UnrecoverableFailureError, match="do not determine"):
        decode_columns(code, block, (0, 1, 2))


def test_wrong_slot_count_rejected():
    with pytest.raises(ValueError, match="stripe block"):
        XCodeLayout(5).decode(np.zeros((4, 5, 8), np.uint8), ())


def test_wrong_column_shape_rejected():
    with pytest.raises(ValueError, match="stripe block"):
        XCodeLayout(5).decode(np.zeros((5, 4, 8), np.uint8), ())


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_random_content_random_pair(seed):
    rng = np.random.default_rng(seed)
    p = 11
    code = XCode(p)
    block = xcode_block(code, _stripe(rng, p, size=4))
    lost = sorted(rng.choice(p, size=2, replace=False).tolist())
    assert np.array_equal(decode_columns(code, block, lost), block)
