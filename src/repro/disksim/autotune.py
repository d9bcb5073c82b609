"""Compatibility stub: there is nothing left to calibrate.

``submit_batch`` coalesces every batch with one sort-and-merge loop, so
no batch-size crossover exists.  ``batch_threshold`` remains only
because the end-to-end benchmark driver still imports and calls it.
"""

__all__ = ["batch_threshold"]


def batch_threshold() -> None:
    """Nothing: kept so the end-to-end benchmark driver's import resolves."""
