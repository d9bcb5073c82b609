"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disksim.disk import DiskParameters


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests needing different streams reseed locally."""
    return np.random.default_rng(20120913)


@pytest.fixture
def savvio() -> DiskParameters:
    return DiskParameters.savvio_10k3()


@pytest.fixture
def ideal_disk() -> DiskParameters:
    return DiskParameters.ideal()


def reference_film_payload(seed: int, payload_bytes: int, stripe: int, i: int, j: int) -> np.ndarray:
    """numpy's own generator for one film element — the rule every film
    payload follows, and the independent reference the film is checked
    against."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stripe, i, j]))
    return rng.integers(0, 256, payload_bytes, dtype=np.uint8)
