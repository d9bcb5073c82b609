"""The rolling baseline: windowed stats and excursion judgements."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import RollingBaseline


def test_not_ready_below_min_samples():
    b = RollingBaseline(window=8, min_samples=4)
    for v in (1.0, 2.0, 3.0):
        b.update(v)
    assert not b.ready
    # an unready baseline never flags
    assert not b.is_excursion(1e9)
    b.update(4.0)
    assert b.ready


def test_mean_and_std_track_the_window():
    b = RollingBaseline(window=4, min_samples=2)
    for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        b.update(v)
    window = [3.0, 4.0, 5.0, 6.0]
    assert b.mean == pytest.approx(np.mean(window))
    assert b.std == pytest.approx(np.std(window))


def test_high_excursion_needs_both_relative_and_z_margin():
    b = RollingBaseline(window=16, min_samples=4)
    rng = np.random.default_rng(0)
    for _ in range(16):
        b.update(1.0 + 0.01 * float(rng.standard_normal()))
    assert b.is_excursion(2.0, rel_threshold=0.5, z_threshold=4.0)
    # large z but tiny relative move: not an excursion
    assert not b.is_excursion(1.1, rel_threshold=0.5, z_threshold=4.0)


def test_zero_variance_baseline_uses_the_relative_test_alone():
    b = RollingBaseline(window=8, min_samples=2)
    for _ in range(8):
        b.update(1.0)
    assert b.std == 0.0
    assert b.is_excursion(1.6, rel_threshold=0.5, z_threshold=4.0)
    assert not b.is_excursion(1.4, rel_threshold=0.5, z_threshold=4.0)


def test_low_direction_mirrors_high():
    b = RollingBaseline(window=8, min_samples=2)
    for _ in range(8):
        b.update(100.0)
    assert b.is_excursion(10.0, rel_threshold=0.5, direction="low")
    assert not b.is_excursion(60.0, rel_threshold=0.5, direction="low")
    assert not b.is_excursion(200.0, rel_threshold=0.5, direction="low")


def test_validation():
    with pytest.raises(ValueError):
        RollingBaseline(window=0)
    with pytest.raises(ValueError):
        RollingBaseline(window=4, min_samples=0)
    b = RollingBaseline(window=4, min_samples=2)
    b.update(1.0)
    b.update(1.0)
    with pytest.raises(ValueError):
        b.is_excursion(1.0, direction="sideways")


def test_non_finite_samples_are_rejected():
    """Regression: one NaN used to poison the running sums forever."""
    b = RollingBaseline(window=4, min_samples=2)
    b.update(1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            b.update(bad)
    b.update(3.0)
    assert b.mean == pytest.approx(2.0)
