"""Stripe blocks of the codecs, and their decode through the equation solver.

A codec's cells are ``(column, row)``: the data columns, then P and Q
for the horizontal codes; for X-Code every column holds its data rows
and then its two parity cells.  :func:`repro.core.layouts.solve`
recovers lost columns from the codec's ``equations``, exactly as
:meth:`repro.core.layouts.Layout.decode` does for a layout.
"""

from __future__ import annotations

import numpy as np

from repro.core.layouts import solve


def horizontal_block(code, data: np.ndarray) -> np.ndarray:
    """The ``(n + 2, p - 1, size)`` block of an EVENODD or RDP stripe."""
    P, Q = code.encode(data)
    return np.concatenate([data.transpose(1, 0, 2), P[None], Q[None]])


def xcode_block(code, data: np.ndarray) -> np.ndarray:
    """The ``(p, p, size)`` block of an X-Code stripe."""
    diag, anti = code.encode(data)
    return np.concatenate([data, diag[None], anti[None]]).transpose(1, 0, 2)


def decode_columns(code, block: np.ndarray, lost) -> np.ndarray:
    """``block`` with its ``lost`` columns overwritten, then solved back."""
    damaged = block.copy()
    damaged[list(lost)] = 0x5A
    unknown = {(c, r) for c in lost for r in range(block.shape[1])}
    return solve(code.equations, damaged, unknown)
