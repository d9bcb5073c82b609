"""Synthetic film content: determinism, independence and the exact bytes."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.film import FilmSource, _film_payloads, build_film_block
from tests.conftest import reference_film_payload


def test_deterministic_per_coordinate():
    a = FilmSource(seed=1)
    b = FilmSource(seed=1)
    assert np.array_equal(a.element(3, 1, 2), b.element(3, 1, 2))


def test_different_coordinates_differ():
    src = FilmSource(payload_bytes=32, seed=1)
    base = src.element(0, 0, 0)
    assert not np.array_equal(base, src.element(1, 0, 0))
    assert not np.array_equal(base, src.element(0, 1, 0))
    assert not np.array_equal(base, src.element(0, 0, 1))


def test_different_seeds_differ():
    assert not np.array_equal(
        FilmSource(seed=1).element(0, 0, 0), FilmSource(seed=2).element(0, 0, 0)
    )


def test_payload_size_respected():
    src = FilmSource(payload_bytes=7)
    assert src.element(0, 0, 0).shape == (7,)
    assert src.element(0, 0, 0).dtype == np.uint8


def test_invalid_payload_rejected():
    with pytest.raises(ValueError):
        FilmSource(payload_bytes=0)


def test_fresh_uses_caller_rng():
    src = FilmSource(payload_bytes=16)
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    assert np.array_equal(src.fresh(rng1), src.fresh(rng2))


@given(
    seed=st.integers(0, 2**64 - 1),
    payload_bytes=st.integers(1, 130),
    count=st.integers(1, 40),
    pending_half=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_fresh_batch_is_scalar_uint8_draws(seed, payload_bytes, count, pending_half):
    """``fresh(rng, k)`` equals ``k`` successive uint8 draws and leaves
    the generator in the same state, also when the bit generator holds
    a spare 32-bit half beforehand."""
    batched = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    if pending_half:
        for rng in (batched, scalar):
            rng.integers(0, 2**32, 1, dtype=np.uint32)
    got = FilmSource(payload_bytes).fresh(batched, count)
    want = [scalar.integers(0, 256, payload_bytes, dtype=np.uint8) for _ in range(count)]
    assert got.shape == (count, payload_bytes)
    assert got.dtype == np.uint8
    assert got.tobytes() == b"".join(w.tobytes() for w in want)
    assert batched.bit_generator.state == scalar.bit_generator.state


@given(
    seed=st.integers(0, 2**64 - 1),
    payload_bytes=st.integers(1, 130),
    stripe=st.integers(0, 2**31),
    i=st.integers(0, 2**31),
    j=st.integers(0, 2**31),
)
@settings(max_examples=150, deadline=None)
def test_element_is_numpys_generator_output(seed, payload_bytes, stripe, i, j):
    """Each payload is ``default_rng(SeedSequence([seed, s, i, j]))``'s
    uint8 draw, which is the little-endian head of PCG64's raw words."""
    got = FilmSource(payload_bytes, seed).element(stripe, i, j).tobytes()
    assert got == reference_film_payload(seed, payload_bytes, stripe, i, j).tobytes()
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, stripe, i, j]))
    raw = bitgen.random_raw(-(-payload_bytes // 8)).astype("<u8").tobytes()
    assert got == raw[:payload_bytes]


@given(
    seed=st.integers(0, 2**64 - 1),
    coords=st.lists(
        st.tuples(*[st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40 + 3])] * 3),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_kernel_mixes_rows_of_different_word_counts(seed, coords):
    """One kernel call over coordinates that contribute one or two
    entropy words each gives every row its own generator's bytes."""
    s, i, j = (np.array(c, dtype=np.int64) for c in zip(*coords))
    got = _film_payloads(seed, 9, s, i, j)
    for row, (cs, ci, cj) in enumerate(coords):
        assert got[row].tobytes() == reference_film_payload(seed, 9, cs, ci, cj).tobytes()


def test_film_block_golden_digest():
    """Pinned bytes, so a drift shows even if numpy's generators change."""
    block = build_film_block(2012, 16, 3, 4, 2)
    assert block.shape == (3, 4, 2, 16)
    assert hashlib.sha256(block.tobytes()).hexdigest() == (
        "4901b1861df23416654cbfc462138c0f92df84f0fbad288b4241ac1916845354"
    )


@pytest.mark.parametrize("coords", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_coordinates_rejected(coords):
    with pytest.raises(ValueError):
        FilmSource(8, 1).element(*coords)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        FilmSource(8, -1).element(0, 0, 0)


def test_far_element_allocates_only_its_payload():
    src = FilmSource(64, 31)
    tracemalloc.start()
    try:
        payload = src.element(10**6, 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(payload, reference_film_payload(31, 64, 10**6, 0, 0))
    assert peak < 1 << 20


def test_block_is_a_read_only_view_of_one_growing_store():
    src = FilmSource(8, 4049)
    small = src.block(2, 3, 1).copy()
    big = src.block(5, 2, 4)
    assert not big.flags.writeable
    assert np.array_equal(big[:2, :2, :1], small[:, :2])
    # the store grew to cover both requests; the first is still served
    again = src.block(2, 3, 1)
    assert np.shares_memory(again, src.block(5, 2, 4))
    assert np.array_equal(again, small)
    assert np.array_equal(big, build_film_block(4049, 8, 5, 2, 4))
    assert np.array_equal(big[4, 1, 3], reference_film_payload(4049, 8, 4, 1, 3))


@pytest.mark.parametrize("extent", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
def test_block_rejects_negative_extents(extent):
    with pytest.raises(ValueError):
        FilmSource(8, 1).block(*extent)


def test_block_rejects_negative_seed():
    with pytest.raises(ValueError):
        FilmSource(8, -3).block(1, 1, 1)
