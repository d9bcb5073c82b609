"""Persistent worker pool: reuse, shared film payloads, bit-identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import WorkerPool, parallel_map, resolve_jobs
from repro.workloads.film import (
    FilmSource,
    build_film_block,
    register_shared_film,
    unregister_shared_film,
)
from tests.conftest import reference_film_payload


def _square(x: int) -> int:
    return x * x


def _film_bytes(args) -> bytes:
    """Worker fn: read one film element through the film store (the
    shared block when one is mapped)."""
    seed, payload_bytes, stripe, i, j = args
    return FilmSource(payload_bytes, seed).block(2, 2, 2)[stripe, i, j].tobytes()


def test_resolve_jobs_conventions():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1


def test_pool_of_one_runs_inline():
    with WorkerPool(jobs=1) as pool:
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
    with pytest.raises(RuntimeError, match="closed"):
        pool.map(_square, [1, 2])


def test_pool_reused_across_maps_preserving_order():
    with WorkerPool(jobs=2) as pool:
        first = pool.map(_square, range(8))
        second = pool.map(_square, range(8, 16))
    assert first == [x * x for x in range(8)]
    assert second == [x * x for x in range(8, 16)]


def test_parallel_map_delegates_to_pool():
    with WorkerPool(jobs=2) as pool:
        assert parallel_map(_square, [3, 4], pool=pool) == [9, 16]
    # without a pool the per-call path still works
    assert parallel_map(_square, [3, 4], jobs=1) == [9, 16]


def test_film_block_matches_on_demand_generation():
    block = build_film_block(5, 8, n_stripes=3, n_i=2, n_j=2)
    for stripe in range(3):
        for i in range(2):
            for j in range(2):
                assert np.array_equal(
                    block[stripe, i, j], reference_film_payload(5, 8, stripe, i, j)
                )


def test_registered_block_serves_lookups_and_falls_back_out_of_range():
    seed, payload = 123, 8
    block = build_film_block(seed, payload, n_stripes=2, n_i=2, n_j=2)
    register_shared_film(seed, payload, block)
    try:
        src = FilmSource(payload, seed)
        covered = src.block(2, 2, 2)
        assert np.shares_memory(covered, block)
        assert not covered.flags.writeable
        # beyond the block: the store is regenerated larger, same bytes
        beyond = src.block(6, 2, 2)
        assert not np.shares_memory(beyond, block)
        assert np.array_equal(beyond[:2], block)
        assert np.array_equal(beyond[5, 0, 0], reference_film_payload(seed, payload, 5, 0, 0))
    finally:
        unregister_shared_film(seed, payload)


def test_shared_film_workers_see_identical_bytes():
    """Workers reading through the shared-memory block must return the
    exact bytes the parent (and numpy's generator) produce."""
    seed, payload = 77, 8
    tasks = [(seed, payload, stripe, i, j) for stripe in range(2) for i in range(2) for j in range(2)]
    expected = [
        reference_film_payload(seed, payload, s, i, j).tobytes()
        for (_, _, s, i, j) in tasks
    ]
    with WorkerPool(jobs=2) as pool:
        pool.share_film(seed, payload, n_stripes=2, n_i=2, n_j=2)
        got = pool.map(_film_bytes, tasks)
    assert got == expected
    # the parent registration is gone after close; regeneration still agrees
    assert _film_bytes(tasks[0]) == expected[0]


# ----------------------------------------------------------------------
# flight-recorder snapshots across the pool boundary
# ----------------------------------------------------------------------


def _record_chunk(args) -> dict:
    """Worker fn: fold one chunk of (t, value) samples into a recorder."""
    from repro.obs import TimelineRecorder

    window_s, chunk = args
    rec = TimelineRecorder(window_s=window_s, registry=False)
    series = rec.series("prop.latency_s")
    for t, v in chunk:
        series.observe(t, v)
    return rec.snapshot()


def _merge_snapshots(snapshots, window_s: float) -> dict:
    from repro.obs import TimelineRecorder

    rec = TimelineRecorder(window_s=window_s, registry=False)
    for snap in snapshots:
        rec.merge(snap)
    return rec.snapshot()


@given(
    samples=st.lists(
        st.tuples(
            st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False),
            # dyadic rationals: float addition is exact, so the serial
            # sum and the chunked merge agree bit-for-bit
            st.integers(1, 2048).map(lambda k: k / 1024.0),
        ),
        min_size=1,
        max_size=48,
    ),
    n_chunks=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_chunked_snapshot_merge_matches_the_serial_feed(samples, n_chunks):
    """Splitting a sample stream into per-worker recorders and merging
    their snapshots yields exactly the windows of one serial recorder."""
    samples.sort(key=lambda tv: tv[0])  # completion order, like the engine
    window_s = 0.5
    serial = _record_chunk((window_s, samples))
    size = -(-len(samples) // n_chunks)
    chunks = [samples[i : i + size] for i in range(0, len(samples), size)]
    merged = _merge_snapshots(
        [_record_chunk((window_s, c)) for c in chunks], window_s
    )
    assert merged == serial


def test_window_aggregates_are_bit_identical_across_the_pool_boundary():
    """jobs=1 vs jobs=N: the merged timeseries must not depend on
    whether chunk snapshots crossed a process boundary."""
    rng = np.random.default_rng(2012)
    window_s = 0.25
    chunks = [
        [(float(t), float(v)) for t, v in zip(rng.uniform(0, 4, 40), rng.exponential(0.02, 40))]
        for _ in range(4)
    ]
    tasks = [(window_s, chunk) for chunk in chunks]
    inline = _merge_snapshots([_record_chunk(t) for t in tasks], window_s)
    with WorkerPool(jobs=2) as pool:
        pooled = _merge_snapshots(pool.map(_record_chunk, tasks), window_s)
    assert pooled == inline
