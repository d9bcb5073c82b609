"""Availability measurement drivers (the Fig. 9 machinery)."""

from __future__ import annotations

from repro.core.layouts import (
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
)
from repro.raidsim.availability import (
    average_reconstruction_throughput,
    measure_case,
)


def test_measure_case_returns_verified_result():
    res = measure_case(shifted_mirror(3), (0,), n_stripes=6)
    assert res.verified
    assert res.read_throughput_mbps > 0
    assert res.recovered_bytes == 3 * 6 * res.failed_disks.__len__() * 4 * 1024 * 1024


def test_average_enumerates_all_single_failures():
    point = average_reconstruction_throughput(
        lambda: shifted_mirror(3), n_failed=1, n_stripes=6
    )
    assert point.n_cases == 6
    assert point.all_verified
    assert point.min_read_throughput_mbps <= point.mean_read_throughput_mbps
    assert point.mean_read_throughput_mbps <= point.max_read_throughput_mbps


def test_average_enumerates_all_double_failures():
    point = average_reconstruction_throughput(
        lambda: shifted_mirror_parity(3), n_failed=2, n_stripes=4
    )
    assert point.n_cases == 21  # C(7, 2)
    assert point.all_verified


def test_paper_case_count_105_at_n7():
    from itertools import combinations

    lay = shifted_mirror_parity(7)
    assert len(list(combinations(range(lay.n_disks), 2))) == 105


def _series(builder, n_values, n_stripes):
    """One Fig. 9(a) curve, a point per data-disk count, as fig9 builds it."""
    return [
        average_reconstruction_throughput(
            (lambda n=n: builder(n)), n_failed=1, n_stripes=n_stripes
        )
        for n in n_values
    ]


def test_series_one_point_per_n():
    series = _series(shifted_mirror, [3, 4], n_stripes=4)
    assert [p.n for p in series] == [3, 4]
    assert all(p.layout_name == "shifted-mirror" for p in series)


def test_shifted_series_grows_traditional_flat():
    shifted = _series(shifted_mirror, [3, 5], n_stripes=8)
    trad = _series(traditional_mirror, [3, 5], n_stripes=8)
    assert shifted[1].mean_read_throughput_mbps > 1.4 * shifted[0].mean_read_throughput_mbps
    t0, t1 = (p.mean_read_throughput_mbps for p in trad)
    assert abs(t1 - t0) / t0 < 0.05
