"""Compatibility stub: the batch threshold is now a constant.

The per-machine calibration that lived here was removed in favour of
``repro.disksim.array._NUMPY_MIN_OPS``.  ``batch_threshold`` remains
only because the end-to-end benchmark driver still imports it.
"""

from .array import _NUMPY_MIN_OPS

__all__ = ["batch_threshold"]


def batch_threshold() -> int:
    """The batch size at which ``submit_batch`` switches to numpy."""
    return _NUMPY_MIN_OPS
