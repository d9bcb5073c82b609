"""Rolling metric baselines for anomaly detection.

The nemesis daemon (:mod:`repro.nemesis`) needs to decide, tick by
tick, whether a latency/throughput sample is *ordinary* or an
*excursion*.  :class:`RollingBaseline` holds a bounded window of
recent quiet-period samples and answers that question with a combined
relative + z-score test:

* the sample must deviate from the rolling mean by more than
  ``rel_threshold`` (a fraction of the mean) — this filters the tiny
  absolute wiggles of a near-constant series whose standard deviation
  is almost zero, and
* when the window has any spread, the sample must also sit more than
  ``z_threshold`` standard deviations out — this filters ordinary
  Poisson-arrival jitter on noisy series.

Both tests are directional (``"high"`` flags inflated samples such as
latency, ``"low"`` flags collapsed ones such as throughput).  The
window only ever receives samples the caller deems quiet, so a fault
can never teach the baseline that its own degradation is normal.
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["RollingBaseline"]


class RollingBaseline:
    """Windowed mean/std over the most recent ``window`` samples.

    ``min_samples`` gates readiness: until that many samples arrived
    the baseline abstains (nothing is an excursion), so campaign
    warm-up can never produce false positives.
    """

    __slots__ = ("window", "min_samples", "_samples", "_sum", "_sumsq")

    def __init__(self, window: int = 64, min_samples: int = 8) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 2 <= min_samples <= window:
            raise ValueError(
                f"min_samples must be in [2, window], got {min_samples}"
            )
        self.window = window
        self.min_samples = min_samples
        self._samples: deque[float] = deque(maxlen=window)
        self._sum = 0.0
        self._sumsq = 0.0

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def ready(self) -> bool:
        """Whether enough quiet samples arrived to judge excursions."""
        return len(self._samples) >= self.min_samples

    @property
    def mean(self) -> float:
        n = len(self._samples)
        return self._sum / n if n else 0.0

    @property
    def std(self) -> float:
        n = len(self._samples)
        if n < 2:
            return 0.0
        var = self._sumsq / n - self.mean**2
        return var**0.5 if var > 0.0 else 0.0

    def update(self, value: float) -> None:
        """Admit a quiet-period sample into the window.

        Non-finite samples are rejected: a single NaN would poison the
        running sums for the lifetime of the window (NaN means "no
        measurement" — callers abstain instead of feeding it).
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"baseline samples must be finite, got {value}")
        if len(self._samples) == self._samples.maxlen:
            old = self._samples[0]
            self._sum -= old
            self._sumsq -= old * old
        self._samples.append(value)
        self._sum += value
        self._sumsq += value * value

    def is_excursion(
        self,
        value: float,
        rel_threshold: float = 0.5,
        z_threshold: float = 4.0,
        direction: str = "high",
    ) -> bool:
        """Judge ``value`` against the baseline without admitting it."""
        if direction not in ("high", "low"):
            raise ValueError(f"direction must be 'high' or 'low', got {direction!r}")
        if not self.ready:
            return False
        mean, std = self.mean, self.std
        if direction == "high":
            beyond_rel = value > mean + rel_threshold * abs(mean)
            beyond_z = std == 0.0 or value > mean + z_threshold * std
        else:
            beyond_rel = value < mean - rel_threshold * abs(mean)
            beyond_z = std == 0.0 or value < mean - z_threshold * std
        return beyond_rel and beyond_z
