"""The EVENODD code (Blaum, Brady, Bruck, Menon 1995) — RAID 6 baseline.

EVENODD tolerates any two device failures using only XOR arithmetic.
A full stripe has ``p`` data columns (``p`` prime), one row-parity
column ``P`` and one diagonal-parity column ``Q``, each column holding
``p - 1`` elements.  A conceptual all-zero "imaginary" row ``p - 1``
completes the diagonals.

Row parity is the plain XOR of each row.  Diagonal parity is offset by
the *adjuster* ``S``, the XOR of the special diagonal ``p - 1``:

.. math::

    S = \\bigoplus_{j=1}^{p-1} a_{p-1-j,\\,j}, \\qquad
    Q_d = S \\oplus \\bigoplus_{j=0}^{p-1} a_{\\langle d-j \\rangle_p,\\,j}

The paper's Fig. 7 applies the "shorten" method [Jin et al., ICS'09]
to fit RAID 6 to ``n`` data disks: pick the smallest prime ``p >= n``
and treat the ``p - n`` absent columns as all-zero.  :class:`EvenOdd`
supports that directly via the ``n`` parameter, and
:func:`smallest_prime_at_least` chooses ``p``.

Stripes are ``(p-1, n, element_size)`` uint8 arrays; each
``stripe[row, col]`` is one element region.  :attr:`EvenOdd.equations`
declares the rows and diagonals, ``S`` folded in, as cell sets that
XOR to zero; :meth:`repro.core.layouts.Layout.decode` solves them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["EvenOdd", "is_prime", "smallest_prime_at_least"]


def is_prime(p: int) -> bool:
    """Deterministic primality test for small integers."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    """The smallest prime ``p >= n`` (the RAID 6 "shorten" parameter)."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


class EvenOdd:
    """EVENODD erasure code with optional shortening.

    Parameters
    ----------
    p:
        Prime controlling the geometry; the stripe has ``p - 1`` rows.
    n:
        Number of real data columns, ``1 <= n <= p``.  Columns
        ``n .. p-1`` are virtual all-zero columns (shortened code).
    """

    def __init__(self, p: int, n: int | None = None) -> None:
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime, got {p}")
        n = p if n is None else n
        if not 1 <= n <= p:
            raise ValueError(f"need 1 <= n <= p, got n={n}, p={p}")
        self.p = p
        self.n = n
        self.rows = p - 1

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _full(self, data: np.ndarray) -> np.ndarray:
        """Zero-pad an ``(p-1, n, size)`` stripe to the full ``p`` columns."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[:2] != (self.rows, self.n):
            raise ValueError(
                f"stripe must have shape ({self.rows}, {self.n}, size), got {data.shape}"
            )
        if self.n == self.p:
            return data
        pad = np.zeros((self.rows, self.p - self.n, data.shape[2]), dtype=np.uint8)
        return np.concatenate([data, pad], axis=1)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _extended(self, data: np.ndarray) -> np.ndarray:
        """``(p, p, size)`` cell grid including the imaginary zero row."""
        full = self._full(data)
        ext = np.zeros((self.p, self.p, full.shape[2]), dtype=np.uint8)
        ext[: self.rows] = full
        return ext

    def adjuster(self, data: np.ndarray) -> np.ndarray:
        """The adjuster ``S``: XOR of the special diagonal ``p - 1``."""
        ext = self._extended(data)
        cols = np.arange(self.p)
        rows = (self.p - 1 - cols) % self.p
        return np.bitwise_xor.reduce(ext[rows, cols], axis=0)

    def encode(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compute the ``P`` (row) and ``Q`` (diagonal) parity columns.

        Vectorised as one diagonal gather plus XOR reductions (the
        encode is the write-path hot spot).  Returns two
        ``(p-1, size)`` arrays.
        """
        full = self._full(data)
        row_parity = np.bitwise_xor.reduce(full, axis=1)
        ext = self._extended(data)
        s = self.adjuster(data)
        d_idx = np.arange(self.rows)[:, None]
        j_idx = np.arange(self.p)[None, :]
        gathered = ext[(d_idx - j_idx) % self.p, j_idx]  # (rows, p, size)
        diag_parity = np.bitwise_xor.reduce(gathered, axis=1) ^ s[None, :]
        return row_parity, diag_parity

    @cached_property
    def equations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Cell sets ``(column, row)`` whose bytes XOR to zero.

        Columns ``0 .. n-1`` are data, ``n`` is P and ``n + 1`` is Q;
        virtual columns and the imaginary row hold zeros and are left
        out.  Row ``t``'s set is its data and ``P_t``.  ``Q_d`` is the
        XOR of diagonal ``d`` and ``S``, itself the XOR of diagonal
        ``p - 1``, so diagonal ``d``'s set is ``Q_d`` with both diagonals.
        """
        p, n = self.p, self.n

        def diagonal(d: int) -> tuple[tuple[int, int], ...]:
            return tuple((j, (d - j) % p) for j in range(n) if (d - j) % p != p - 1)

        rows = [(*((j, t) for j in range(n)), (n, t)) for t in range(self.rows)]
        diagonals = [
            ((n + 1, d), *diagonal(d), *diagonal(p - 1)) for d in range(self.rows)
        ]
        return tuple(rows + diagonals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EvenOdd(p={self.p}, n={self.n})"
