"""The ``autotune`` stub still reports the coalescer crossover."""

from __future__ import annotations

from repro.disksim import autotune


def test_submit_batch_uses_resolved_threshold(monkeypatch):
    """``batch_threshold()`` names the batch size at which
    ``submit_batch`` switches from the scalar to the numpy coalescer."""
    from repro.disksim.array import ElementArray
    from repro.disksim.disk import DiskParameters
    from repro.disksim.request import IOKind

    threshold = autotune.batch_threshold()
    arr = ElementArray(4, 4096, DiskParameters.savvio_10k3())
    used = []
    monkeypatch.setattr(
        arr, "_coalesce_numpy", lambda *a: used.append("numpy") or ([], [])
    )
    monkeypatch.setattr(
        arr, "_coalesce_scalar", lambda *a: used.append("scalar") or ([], [])
    )
    for m in (threshold - 1, threshold):
        arr.submit_batch([0] * m, list(range(m)), IOKind.READ)
    assert used == ["scalar", "numpy"]
