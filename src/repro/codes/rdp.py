"""The Row-Diagonal Parity code (Corbett et al., FAST'04) — RAID 6 baseline.

RDP tolerates any two device failures using pure XOR arithmetic.  For a
prime ``p`` the full stripe has ``p + 1`` columns of ``p - 1`` rows:

* columns ``0 .. p-2`` — data,
* column ``p-1`` — row parity (XOR of each row of data),
* column ``p`` — diagonal parity.

Diagonals are taken over the first ``p`` columns (data **and** row
parity); the cell at ``(row t, column j)`` belongs to diagonal
``<t + j> mod p``.  Diagonals ``0 .. p-2`` each get a parity element;
diagonal ``p - 1`` is the "missing" diagonal with no parity.  A
conceptual all-zero row ``p - 1`` completes the geometry.

:attr:`RDP.equations` declares the rows and the stored diagonals as
cell sets that XOR to zero; :meth:`repro.core.layouts.Layout.decode`
solves them, and peeling them one unknown at a time is the alternating
row/diagonal chain of the RDP paper.

Shortening to ``n < p - 1`` real data columns (virtual zero columns)
is supported for the paper's Fig. 7 RAID 6 comparison.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .evenodd import is_prime

__all__ = ["RDP"]


class RDP:
    """Row-Diagonal Parity code with optional shortening.

    Parameters
    ----------
    p:
        Prime controlling the geometry; the stripe has ``p - 1`` rows
        and up to ``p - 1`` data columns.
    n:
        Number of real data columns, ``1 <= n <= p - 1``; remaining
        data columns are virtual zeros.
    """

    def __init__(self, p: int, n: int | None = None) -> None:
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime, got {p}")
        n = p - 1 if n is None else n
        if not 1 <= n <= p - 1:
            raise ValueError(f"need 1 <= n <= p-1, got n={n}, p={p}")
        self.p = p
        self.n = n
        self.rows = p - 1

    # ------------------------------------------------------------------
    def _check_stripe(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[:2] != (self.rows, self.n):
            raise ValueError(
                f"stripe must have shape ({self.rows}, {self.n}, size), got {data.shape}"
            )
        return data

    def encode(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compute the row-parity and diagonal-parity columns.

        Parameters
        ----------
        data:
            ``(p-1, n, size)`` uint8 stripe.

        Returns
        -------
        (row_parity, diag_parity)
            Two ``(p-1, size)`` arrays.
        """
        data = self._check_stripe(data)
        size = data.shape[2]
        p = self.p
        row_parity = np.bitwise_xor.reduce(data, axis=1)
        # extended (p, p, size) grid: data columns, virtual zero columns,
        # the row-parity column, plus the imaginary zero row — so the
        # diagonal gather below is one fancy-index expression.
        ext = np.zeros((p, p, size), dtype=np.uint8)
        ext[: self.rows, : self.n] = data
        ext[: self.rows, p - 1] = row_parity
        d_idx = np.arange(self.rows)[:, None]
        j_idx = np.arange(p)[None, :]
        gathered = ext[(d_idx - j_idx) % p, j_idx]  # (rows, p, size)
        diag_parity = np.bitwise_xor.reduce(gathered, axis=1)
        return row_parity, diag_parity

    @cached_property
    def equations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Cell sets ``(column, row)`` whose bytes XOR to zero.

        Columns ``0 .. n-1`` are data, ``n`` is the row parity P (code
        column ``p - 1``) and ``n + 1`` is Q; virtual columns and the
        imaginary row hold zeros and are left out.  Row ``t``'s set is
        its data and ``P_t``; diagonal ``d``'s set is ``Q_d`` and the
        data and P cells of diagonal ``d``.
        """
        p, n = self.p, self.n
        rows = [(*((j, t) for j in range(n)), (n, t)) for t in range(self.rows)]
        diagonals = []
        for d in range(self.rows):
            cells = [(j, (d - j) % p) for j in range(n)] + [(n, (d + 1) % p)]
            diagonals.append(((n + 1, d), *(c for c in cells if c[1] != p - 1)))
        return tuple(rows + diagonals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RDP(p={self.p}, n={self.n})"
