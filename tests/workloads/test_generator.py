"""Workload generators: the Fig. 10 write mix and user read streams."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import LAYOUTS, comparison_pair
from repro.raidsim import campaign
from repro.workloads.openloop import TenantSpec, open_arrivals
from repro.workloads.generator import (
    MAX_ARRIVALS,
    UserRead,
    WriteOp,
    _bounded_draws,
    random_large_writes,
    user_read_stream,
)


# ----------------------------------------------------------------------
# random large writes
# ----------------------------------------------------------------------


def test_op_count_and_types():
    ops = random_large_writes(4, 8, n_ops=50, rng=np.random.default_rng(0))
    assert len(ops) == 50
    assert all(isinstance(op, WriteOp) for op in ops)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_ops_respect_stripe_bounds_and_are_row_major(seed, n):
    ops = random_large_writes(n, 5, n_ops=20, rng=np.random.default_rng(seed))
    for op in ops:
        assert 0 <= op.stripe < 5
        assert 1 <= op.n_elements <= n * n
        # row-major contiguity: element indices form a consecutive run
        indices = [j * n + i for i, j in op.elements]
        assert indices == list(range(indices[0], indices[0] + len(indices)))
        for i, j in op.elements:
            assert 0 <= i < n and 0 <= j < n


def test_sizes_span_element_to_full_stripe():
    ops = random_large_writes(3, 4, n_ops=500, rng=np.random.default_rng(1))
    sizes = {op.n_elements for op in ops}
    assert 1 in sizes
    assert 9 in sizes  # whole stripe


def test_deterministic_given_rng():
    a = random_large_writes(4, 4, 30, np.random.default_rng(7))
    b = random_large_writes(4, 4, 30, np.random.default_rng(7))
    assert a == b


def test_default_rng_is_seeded():
    assert random_large_writes(3, 3, 5) == random_large_writes(3, 3, 5)


# ----------------------------------------------------------------------
# user read stream
# ----------------------------------------------------------------------


def test_poisson_stream_within_duration():
    reads = user_read_stream(4, 6, duration_s=2.0, rate_per_s=50, seed=2)
    assert reads  # 100 expected arrivals
    assert all(0 < r.time < 2.0 for r in reads)
    times = [r.time for r in reads]
    assert times == sorted(times)


def test_target_disk_pinning():
    reads = user_read_stream(
        4, 6, duration_s=1.0, rate_per_s=30, target_disk=2, seed=3
    )
    assert all(r.i == 2 for r in reads)


def test_unpinned_reads_spread_over_disks():
    reads = user_read_stream(4, 6, duration_s=5.0, rate_per_s=60, seed=4)
    assert {r.i for r in reads} == {0, 1, 2, 3}


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        user_read_stream(4, 4, 1.0, 0)


@pytest.mark.parametrize("rate,duration", [
    (1e300, 1.0),  # never finished: drew arrivals one by one
    (MAX_ARRIVALS / 2.0 + 1.0, 2.0),  # just over the bound
])
def test_a_stream_expecting_too_many_arrivals_is_refused(rate, duration):
    """Refused before any draw, naming the rate and the window."""
    message = re.escape(f"rate {rate:g}/s over a {duration:g} s window")
    with pytest.raises(ValueError, match=message):
        user_read_stream(3, 2, duration_s=duration, rate_per_s=rate)
    with pytest.raises(ValueError, match=message):
        open_arrivals(3, 2, duration, [TenantSpec("a", rate / 2), TenantSpec("b", rate / 2)])


def test_arrival_rate_roughly_matches():
    reads = user_read_stream(4, 4, duration_s=50.0, rate_per_s=10, seed=5)
    assert len(reads) == pytest.approx(500, rel=0.2)


def test_user_read_is_frozen():
    r = UserRead(1.0, 0, 1, 2)
    with pytest.raises(AttributeError):
        r.time = 2.0
    assert not hasattr(r, "__dict__")  # slotted


def test_target_disk_out_of_range_is_rejected():
    """Regression: out-of-range targets used to generate unreadable reads."""
    for bad in (-1, 4, 99):
        with pytest.raises(ValueError, match=r"target_disk must be in \[0, 4\)"):
            user_read_stream(4, 4, 1.0, 10.0, target_disk=bad)
    # boundary values stay legal
    assert all(
        r.i == 3 for r in user_read_stream(4, 4, 1.0, 10.0, target_disk=3)
    )


# ----------------------------------------------------------------------
# raw-word draws: bit for bit the scalar numpy loop
# ----------------------------------------------------------------------


def _scalar_reads(n, n_stripes, duration_s, rate_per_s, target_disk, rng):
    """The stream as four scalar numpy calls per read draw it."""
    reads = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            break
        stripe = int(rng.integers(0, n_stripes))
        i = int(rng.integers(0, n)) if target_disk is None else target_disk
        j = int(rng.integers(0, n))
        reads.append(UserRead(t, stripe, i, j))
    return reads


@given(
    data=st.data(),
    seed=st.integers(0, 2**63 - 1),
    n=st.integers(1, 9),
    n_stripes=st.one_of(st.integers(1, 200), st.integers(1, 2**32)),
    rate=st.floats(0.5, 300.0),
    duration=st.floats(0.0, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_stream_equals_the_scalar_numpy_loop(data, seed, n, n_stripes, rate, duration):
    target = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    got = user_read_stream(n, n_stripes, duration, rate, target_disk=target, seed=seed)
    want = _scalar_reads(
        n, n_stripes, duration, rate, target, np.random.default_rng(seed)
    )
    assert got == want


BOUNDS = (1, 2, 3, 24, 2**31 + 1, 2**32 - 5)


@given(
    seed=st.integers(0, 2**63 - 1),
    bounds=st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_bounded_draw_equals_generator_integers(seed, bounds):
    # 2**31 + 1 rejects about half its draws; 1 draws nothing
    draw = _bounded_draws(np.random.default_rng(seed).bit_generator)
    rng = np.random.default_rng(seed)
    assert [draw(r) for r in bounds] == [int(rng.integers(0, r)) for r in bounds]


def test_default_seed_is_the_old_default_rng():
    assert user_read_stream(3, 5, 2.0, 20.0) == _scalar_reads(
        3, 5, 2.0, 20.0, None, np.random.default_rng(1)
    )


def test_stripe_count_is_bounds_checked():
    for bad in (0, 2**32 + 1):
        with pytest.raises(ValueError, match="n_stripes"):
            user_read_stream(3, bad, 1.0, 10.0)


def test_a_comparison_draws_one_stream(monkeypatch):
    drawn = []

    def counting(*args, **kwargs):
        drawn.append(args)
        return user_read_stream(*args, **kwargs)

    monkeypatch.setattr(campaign, "user_read_stream", counting)
    baseline, variant = (LAYOUTS[name](3) for name in comparison_pair("mirror"))
    cmp_ = campaign.compare_arrangements(
        baseline,
        variant,
        campaign.default_fault_plan(baseline.n_disks, seed=5),
        n_stripes=4,
        user_read_rate_per_s=20.0,
    )
    assert len(drawn) == 1
    served = cmp_.traditional.online.n_user_reads, cmp_.shifted.online.n_user_reads
    assert served[0] == served[1] > 0
