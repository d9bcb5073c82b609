"""Microbenchmarks of the XOR-only RAID 6 codes.

These are true repeated-measurement benchmarks (pytest-benchmark does
the rounds): EVENODD, RDP and X-Code encode and double-erasure decode
on 64 KiB-per-element stripes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.evenodd import EvenOdd
from repro.codes.rdp import RDP
from repro.codes.xcode import XCode

RNG = np.random.default_rng(99)


@pytest.mark.parametrize("cls,p,n", [(EvenOdd, 7, 7), (RDP, 7, 6)])
def test_bench_raid6_encode(benchmark, cls, p, n):
    code = cls(p, n)
    data = RNG.integers(0, 256, (p - 1, n, 64 * 1024), dtype=np.uint8)
    P, Q = benchmark(code.encode, data)
    assert P.shape == Q.shape == (p - 1, 64 * 1024)


@pytest.mark.parametrize("cls,p,n", [(EvenOdd, 7, 7), (RDP, 7, 6)])
def test_bench_raid6_double_decode(benchmark, cls, p, n):
    code = cls(p, n)
    data = RNG.integers(0, 256, (p - 1, n, 64 * 1024), dtype=np.uint8)
    P, Q = code.encode(data)
    cols = [data[:, j].copy() for j in range(n)]
    cols[0] = None
    cols[2] = None
    d2, _, _ = benchmark(code.decode, cols, P, Q)
    assert np.array_equal(d2, data)


def test_bench_xcode_encode(benchmark):
    code = XCode(7)
    data = RNG.integers(0, 256, (5, 7, 64 * 1024), dtype=np.uint8)
    diag, anti = benchmark(code.encode, data)
    assert diag.shape == anti.shape == (7, 64 * 1024)


def test_bench_xcode_double_decode(benchmark):
    code = XCode(7)
    data = RNG.integers(0, 256, (5, 7, 64 * 1024), dtype=np.uint8)
    cols = code.full_columns(data)
    survivors = [None, cols[1], None, *cols[3:]]
    grid = benchmark(code.decode, survivors)
    assert np.array_equal(grid[:5], data)
