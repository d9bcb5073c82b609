"""X-Code (Xu & Bruck, 1999): the classic *vertical* RAID 6 code.

The paper's baselines (EVENODD, RDP) are horizontal codes — dedicated
parity disks — and §II-C2 criticises their update behaviour; the
"shorten" reference [22] (P-code) is a vertical code, where parity is
spread across all disks.  X-Code is the canonical vertical
representative and completes the baseline zoo:

* ``p`` disks (``p`` prime), each holding ``p`` elements;
* rows ``0 .. p-3`` hold data, row ``p-2`` holds diagonal parity and
  row ``p-1`` anti-diagonal parity:

.. math::

    C_{p-2,i} = \\bigoplus_{k=0}^{p-3} C_{k,\\langle i+k+2\\rangle_p}
    \\qquad
    C_{p-1,i} = \\bigoplus_{k=0}^{p-3} C_{k,\\langle i-k-2\\rangle_p}

* every single data element belongs to exactly two parity chains, so
  X-Code *is* update-optimal (unlike the horizontal RAID 6 codes) —
  but a vertical code cannot be shortened by zeroing columns, because
  parity lives in every column; the geometry is all-or-nothing.
  (:class:`XCode` therefore supports full width only.)

:attr:`XCode.equations` declares the 2p parity chains as cell sets
that XOR to zero; :meth:`repro.core.layouts.Layout.decode` solves
them, and any two column erasures leave a chain with a single unknown
to start peeling from (proved in the original paper, exhaustively
exercised in the tests).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .evenodd import is_prime

__all__ = ["XCode"]


class XCode:
    """X-Code over ``p`` disks (``p`` prime, ``p >= 5``).

    Stripes are ``(p-2, p, size)`` data arrays (rows x columns x
    bytes); full columns — data plus the column's two parity cells —
    are ``(p, size)``.
    """

    def __init__(self, p: int) -> None:
        if not is_prime(p) or p < 5:
            raise ValueError(f"p must be a prime >= 5, got {p}")
        self.p = p
        self.data_rows = p - 2

    # ------------------------------------------------------------------
    def _check(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 3 or data.shape[:2] != (self.data_rows, self.p):
            raise ValueError(
                f"stripe must have shape ({self.data_rows}, {self.p}, size), "
                f"got {data.shape}"
            )
        return data

    def encode(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two parity rows, each ``(p, size)``."""
        data = self._check(data)
        p = self.p
        size = data.shape[2]
        cols = np.arange(p)
        diag = np.zeros((p, size), dtype=np.uint8)
        anti = np.zeros((p, size), dtype=np.uint8)
        for k in range(self.data_rows):
            diag ^= data[k, (cols + k + 2) % p]
            anti ^= data[k, (cols - k - 2) % p]
        return diag, anti

    @cached_property
    def equations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The 2p parity chains as cell sets ``(column, row)`` whose bytes
        XOR to zero: each parity cell with the data cells it covers."""
        p, rows = self.p, range(self.data_rows)
        chains = []
        for i in range(p):
            chains.append(((i, p - 2), *(((i + k + 2) % p, k) for k in rows)))
            chains.append(((i, p - 1), *(((i - k - 2) % p, k) for k in rows)))
        return tuple(chains)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"XCode(p={self.p})"
