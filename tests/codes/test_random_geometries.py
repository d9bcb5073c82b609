"""Property-based geometry sweeps: random (p, n) and element sizes through
every code, decoded through its parity equations."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.evenodd import EvenOdd
from repro.codes.rdp import RDP
from repro.codes.xcode import XCode
from tests.codes.conftest import decode_columns, horizontal_block, xcode_block

PRIMES_EO = [3, 5, 7, 11, 13]
PRIMES_X = [5, 7, 11, 13]


@st.composite
def evenodd_case(draw):
    p = draw(st.sampled_from(PRIMES_EO))
    n = draw(st.integers(1, p))
    seed = draw(st.integers(0, 2**31))
    return p, n, seed


@st.composite
def rdp_case(draw):
    p = draw(st.sampled_from(PRIMES_EO))
    n = draw(st.integers(1, p - 1))
    seed = draw(st.integers(0, 2**31))
    return p, n, seed


def _erase_up_to_two(rng, count):
    k = int(rng.integers(0, min(count, 2) + 1))
    return sorted(rng.choice(count, size=k, replace=False).tolist())


@given(case=evenodd_case(), size=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_evenodd_random_geometry_roundtrip(case, size):
    p, n, seed = case
    rng = np.random.default_rng(seed)
    code = EvenOdd(p, n)
    block = horizontal_block(code, rng.integers(0, 256, (p - 1, n, size), dtype=np.uint8))
    lost = _erase_up_to_two(rng, n + 2)
    assert np.array_equal(decode_columns(code, block, lost), block)


@given(case=rdp_case(), size=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_rdp_random_geometry_roundtrip(case, size):
    p, n, seed = case
    rng = np.random.default_rng(seed)
    code = RDP(p, n)
    block = horizontal_block(code, rng.integers(0, 256, (p - 1, n, size), dtype=np.uint8))
    lost = _erase_up_to_two(rng, n + 2)
    assert np.array_equal(decode_columns(code, block, lost), block)


@given(p=st.sampled_from(PRIMES_X), seed=st.integers(0, 2**31), size=st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_xcode_random_geometry_roundtrip(p, seed, size):
    rng = np.random.default_rng(seed)
    code = XCode(p)
    block = xcode_block(code, rng.integers(0, 256, (p - 2, p, size), dtype=np.uint8))
    lost = _erase_up_to_two(rng, p)
    assert np.array_equal(decode_columns(code, block, lost), block)


@given(case=evenodd_case())
@settings(max_examples=25, deadline=None)
def test_evenodd_parity_linear_in_data(case):
    """Encoding is GF(2)-linear for random geometries too."""
    p, n, seed = case
    rng = np.random.default_rng(seed)
    code = EvenOdd(p, n)
    a = rng.integers(0, 256, (p - 1, n, 4), dtype=np.uint8)
    b = rng.integers(0, 256, (p - 1, n, 4), dtype=np.uint8)
    pa, qa = code.encode(a)
    pb, qb = code.encode(b)
    pab, qab = code.encode(a ^ b)
    assert np.array_equal(pa ^ pb, pab)
    assert np.array_equal(qa ^ qb, qab)
