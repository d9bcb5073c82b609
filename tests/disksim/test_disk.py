"""Disk model: seek profile, rotation, sequential detection, calibration."""

from __future__ import annotations

import pytest

from repro.disksim.disk import DiskModel, DiskParameters
from repro.disksim.request import IOKind, IORequest

_MB = 1024 * 1024


@pytest.fixture
def disk(savvio):
    return DiskModel(0, savvio)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------


def test_savvio_figures(savvio):
    assert savvio.seq_read_mbps == pytest.approx(54.8)
    assert savvio.seq_write_mbps == pytest.approx(130.0)
    assert savvio.rpm == 10_000
    assert savvio.capacity_bytes == 300 * 10**9


def test_rotational_latency(savvio):
    assert savvio.rotation_time_s == pytest.approx(0.006)
    assert savvio.avg_rotational_latency_s == pytest.approx(0.003)


def _first_service(params, offset: int, size: int = _MB, kind=IOKind.READ) -> float:
    """Service time of one request on a fresh disk (head at offset 0)."""
    return DiskModel(0, params).serve(IORequest(0, offset, size, kind))


def _seek(params, distance: int) -> float:
    """The seek share of a scattered access ``distance`` bytes away."""
    return _first_service(params, distance) - _first_service(params, 0)


def _transfer(params, size: int, kind: IOKind) -> float:
    """Service time of a sequential continuation: transfer only."""
    disk = DiskModel(0, params)
    disk.serve(IORequest(0, 0, size, kind))
    return disk.serve(IORequest(0, size, size, kind))


def test_seek_profile_monotone(savvio):
    assert _seek(savvio, 0) == 0.0
    short = _seek(savvio, 4 * _MB)
    mid = _seek(savvio, savvio.capacity_bytes // 4)
    full = _seek(savvio, savvio.capacity_bytes - _MB)
    assert 0 < short < mid < full
    assert full == pytest.approx(savvio.full_stroke_seek_ms / 1e3, rel=1e-3)


def test_transfer_rates(savvio):
    assert _transfer(savvio, 54_8 * _MB // 10, IOKind.READ) == pytest.approx(1.0, rel=0.01)
    assert _transfer(savvio, 130 * _MB, IOKind.WRITE) == pytest.approx(1.0)


def test_ideal_parameters_strip_all_overheads():
    ideal = DiskParameters.ideal()
    assert _seek(ideal, ideal.capacity_bytes - _MB) == 0.0
    assert ideal.scattered_overhead_s(IOKind.READ) == 0.0


def test_with_overrides():
    p = DiskParameters.savvio_10k3().with_overrides(seq_read_mbps=100.0)
    assert p.seq_read_mbps == 100.0
    assert p.seq_write_mbps == 130.0  # untouched


# ----------------------------------------------------------------------
# service-time decomposition
# ----------------------------------------------------------------------


def test_first_access_is_scattered(disk, savvio):
    req = IORequest(0, 0, 4 * _MB, IOKind.READ)
    t = disk.serve(req)
    transfer = _transfer(savvio, 4 * _MB, IOKind.READ)
    assert t > transfer  # rotation + scattered overhead at least


def test_sequential_continuation_is_pure_transfer(disk, savvio):
    first = IORequest(0, 0, 4 * _MB, IOKind.READ)
    disk.serve(first)
    second = IORequest(0, 4 * _MB, 4 * _MB, IOKind.READ)
    assert disk.serve(second) == pytest.approx(4 / savvio.seq_read_mbps)
    assert disk.n_sequential == 1


def test_kind_switch_breaks_sequentiality(disk):
    disk.serve(IORequest(0, 0, _MB, IOKind.READ))
    disk.serve(IORequest(0, _MB, _MB, IOKind.WRITE))
    assert disk.n_sequential == 0


def test_gap_breaks_sequentiality(disk):
    disk.serve(IORequest(0, 0, _MB, IOKind.READ))
    disk.serve(IORequest(0, 3 * _MB, _MB, IOKind.READ))
    assert disk.n_sequential == 0


def test_writes_skip_scattered_overhead(savvio):
    """Write-back caching: scattered writes pay seek+rotation only."""
    disk = DiskModel(0, savvio)
    disk.serve(IORequest(0, 0, _MB, IOKind.WRITE))
    far = IORequest(0, 100 * _MB, _MB, IOKind.WRITE)
    t = disk.serve(far)
    expected = (
        _seek(savvio, 99 * _MB)
        + savvio.avg_rotational_latency_s
        + _MB / (savvio.seq_write_mbps * _MB)
    )
    assert t == pytest.approx(expected)


def test_request_beyond_capacity_rejected(disk, savvio):
    req = IORequest(0, savvio.capacity_bytes - 10, 100, IOKind.READ)
    with pytest.raises(ValueError, match="capacity"):
        disk.serve(req)


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------


def test_serve_updates_counters(disk):
    disk.serve(IORequest(0, 0, 2 * _MB, IOKind.READ))
    disk.serve(IORequest(0, 2 * _MB, _MB, IOKind.READ))  # sequential
    disk.serve(IORequest(0, 100 * _MB, _MB, IOKind.WRITE))
    assert disk.bytes_read == 3 * _MB
    assert disk.bytes_written == _MB
    assert disk.n_sequential == 1
    assert disk.n_scattered == 2
    assert disk.busy_time > 0
    assert disk._head == 101 * _MB


def test_effective_rates_match_calibration(savvio):
    """The two numbers EXPERIMENTS.md quotes: ~54.8 MB/s streaming and
    ~35 MB/s for scattered 4 MB element reads."""
    disk = DiskModel(0, savvio)
    # long stream
    t_stream = sum(
        disk.serve(IORequest(0, k * 4 * _MB, 4 * _MB, IOKind.READ)) for k in range(100)
    )
    stream_rate = 100 * 4 * _MB / t_stream / _MB
    assert stream_rate == pytest.approx(54.8, rel=0.02)
    disk2 = DiskModel(1, savvio)
    t_scattered = sum(
        disk2.serve(IORequest(1, 2 * k * 4 * _MB, 4 * _MB, IOKind.READ))
        for k in range(100)
    )
    scattered_rate = 100 * 4 * _MB / t_scattered / _MB
    assert 28 < scattered_rate < 42
