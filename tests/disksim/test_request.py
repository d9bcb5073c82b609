"""IORequest construction and derived properties."""

from __future__ import annotations

import pytest

from repro.disksim.request import IOKind, IORequest


def test_basic_fields_and_end():
    r = IORequest(disk=1, offset=100, size=50, kind=IOKind.READ)
    assert (r.offset, r.size) == (100, 50)
    assert r.priority == 10
    assert r.tag == ""


def test_ids_are_unique():
    a = IORequest(0, 0, 1, IOKind.READ)
    b = IORequest(0, 0, 1, IOKind.READ)
    assert a.req_id != b.req_id


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        IORequest(0, 0, 0, IOKind.READ)
    with pytest.raises(ValueError):
        IORequest(0, -1, 1, IOKind.WRITE)


def test_latency_and_service_duration():
    r = IORequest(0, 0, 1, IOKind.READ)
    r.submit_time = 1.0
    r.start_time = 2.5
    r.finish_time = 4.0
    assert r.latency == pytest.approx(3.0)


def test_kind_is_stringy_enum():
    assert str(IOKind.READ) == "read"
    assert IOKind("write") is IOKind.WRITE
