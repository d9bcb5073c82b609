"""Microbenchmarks of the XOR-only RAID 6 codes.

These are true repeated-measurement benchmarks (pytest-benchmark does
the rounds): EVENODD, RDP and X-Code encode, and the double-erasure
decode of their layouts, on 64 KiB-per-element stripes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.evenodd import EvenOdd
from repro.codes.rdp import RDP
from repro.codes.xcode import XCode
from repro.core.layouts import RAID6Layout, XCodeLayout

RNG = np.random.default_rng(99)


@pytest.mark.parametrize("cls,p,n", [(EvenOdd, 7, 7), (RDP, 7, 6)])
def test_bench_raid6_encode(benchmark, cls, p, n):
    code = cls(p, n)
    data = RNG.integers(0, 256, (p - 1, n, 64 * 1024), dtype=np.uint8)
    P, Q = benchmark(code.encode, data)
    assert P.shape == Q.shape == (p - 1, 64 * 1024)


def test_bench_xcode_encode(benchmark):
    code = XCode(7)
    data = RNG.integers(0, 256, (5, 7, 64 * 1024), dtype=np.uint8)
    diag, anti = benchmark(code.encode, data)
    assert diag.shape == anti.shape == (7, 64 * 1024)


@pytest.mark.parametrize(
    "layout",
    [RAID6Layout(7, "evenodd"), RAID6Layout(6, "rdp"), XCodeLayout(7)],
    ids=lambda lay: lay.name,
)
def test_bench_double_decode(benchmark, layout):
    """The one decoder, :meth:`Layout.decode`, over two lost columns."""
    data = RNG.integers(0, 256, (layout.data_rows, layout.n, 64 * 1024), dtype=np.uint8)
    block = layout.encode(data)
    block[[0, 2]] = 0
    got = benchmark(layout.decode, block, (0, 2))
    assert np.array_equal(got, data)
