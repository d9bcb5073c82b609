"""EVENODD: geometry, adjuster algebra, exhaustive double-erasure decode
through its parity equations."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.evenodd import EvenOdd, is_prime, smallest_prime_at_least
from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import RAID6Layout
from tests.codes.conftest import decode_columns, horizontal_block

GEOMETRIES = [(3, 3), (5, 5), (5, 3), (7, 7), (7, 4), (11, 8)]


def _stripe(rng, p, n, size=8):
    return rng.integers(0, 256, (p - 1, n, size)).astype(np.uint8)


# ----------------------------------------------------------------------
# primes
# ----------------------------------------------------------------------


def test_is_prime_basics():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for x in range(25):
        assert is_prime(x) == (x in primes)


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(7) == 7
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(50) == 53


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def test_rejects_non_prime_p():
    with pytest.raises(ValueError, match="odd prime"):
        EvenOdd(4)
    with pytest.raises(ValueError, match="odd prime"):
        EvenOdd(2)  # needs p >= 3


def test_rejects_bad_shortening():
    with pytest.raises(ValueError, match="1 <= n <= p"):
        EvenOdd(5, 6)
    with pytest.raises(ValueError, match="1 <= n <= p"):
        EvenOdd(5, 0)


def test_rejects_wrong_stripe_shape(rng):
    code = EvenOdd(5, 4)
    with pytest.raises(ValueError, match="shape"):
        code.encode(rng.integers(0, 256, (4, 5, 8)).astype(np.uint8))


# ----------------------------------------------------------------------
# encoding algebra
# ----------------------------------------------------------------------


def test_row_parity_is_row_xor(rng):
    p, n = 5, 5
    code = EvenOdd(p, n)
    data = _stripe(rng, p, n)
    P, _ = code.encode(data)
    assert np.array_equal(P, np.bitwise_xor.reduce(data, axis=1))


def test_adjuster_is_special_diagonal_xor(rng):
    p, n = 5, 5
    code = EvenOdd(p, n)
    data = _stripe(rng, p, n)
    s = code.adjuster(data)
    expected = np.zeros(data.shape[2], dtype=np.uint8)
    for j in range(1, p):
        row = p - 1 - j
        if row != p - 1:
            expected ^= data[row, j]
    assert np.array_equal(s, expected)


def test_q_parity_definition(rng):
    """Q_d = S XOR (XOR of diagonal d), with the imaginary zero row."""
    p, n = 5, 5
    code = EvenOdd(p, n)
    data = _stripe(rng, p, n)
    _, Q = code.encode(data)
    s = code.adjuster(data)
    for d in range(p - 1):
        acc = s.copy()
        for j in range(p):
            row = (d - j) % p
            if row != p - 1:
                acc ^= data[row, j]
        assert np.array_equal(Q[d], acc)


def test_shortened_code_matches_zero_padded_full_code(rng):
    p, n = 7, 4
    short = EvenOdd(p, n)
    full = EvenOdd(p, p)
    data = _stripe(rng, p, n)
    padded = np.concatenate(
        [data, np.zeros((p - 1, p - n, data.shape[2]), dtype=np.uint8)], axis=1
    )
    ps, qs = short.encode(data)
    pf, qf = full.encode(padded)
    assert np.array_equal(ps, pf)
    assert np.array_equal(qs, qf)


def test_all_zero_data_gives_all_zero_parity():
    code = EvenOdd(5, 5)
    data = np.zeros((4, 5, 8), dtype=np.uint8)
    P, Q = code.encode(data)
    assert not P.any() and not Q.any()


# ----------------------------------------------------------------------
# decoding — exhaustive over erasure patterns, through the equations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p,n", GEOMETRIES)
def test_decode_every_single_and_double_erasure(p, n, rng):
    code = EvenOdd(p, n)
    block = horizontal_block(code, _stripe(rng, p, n))
    patterns = list(combinations(range(n + 2), 1)) + list(combinations(range(n + 2), 2))
    for lost in patterns:
        assert np.array_equal(decode_columns(code, block, lost), block), lost


def test_decode_nothing_lost_roundtrips(rng):
    code = EvenOdd(5, 5)
    block = horizontal_block(code, _stripe(rng, 5, 5))
    assert np.array_equal(decode_columns(code, block, ()), block)


def test_decode_rejects_triple_erasure(rng):
    code = EvenOdd(5, 5)
    block = horizontal_block(code, _stripe(rng, 5, 5))
    with pytest.raises(UnrecoverableFailureError, match="do not determine"):
        decode_columns(code, block, (0, 1, 5))


def test_decode_rejects_wrong_column_count():
    layout = RAID6Layout(5, "evenodd")
    with pytest.raises(ValueError, match="stripe block"):
        layout.decode(np.zeros((layout.n_disks - 1, layout.rows, 8), np.uint8), ())


def test_element_size_inferred_from_parity_survivor(rng):
    """n=1 with data and P lost: the Q column alone gives the stripe back."""
    code = EvenOdd(3, 1)
    block = horizontal_block(code, _stripe(rng, 3, 1))
    assert np.array_equal(decode_columns(code, block, (0, 1)), block)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_random_content_random_double_erasure(seed):
    rng = np.random.default_rng(seed)
    p, n = 7, 6
    code = EvenOdd(p, n)
    block = horizontal_block(code, _stripe(rng, p, n, size=4))
    lost = sorted(rng.choice(n + 2, size=2, replace=False).tolist())
    assert np.array_equal(decode_columns(code, block, lost), block)
