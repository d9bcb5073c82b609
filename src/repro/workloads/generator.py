"""Workload generators for the evaluation (§VII).

* :func:`random_large_writes` — the Fig. 10 workload: "one thousand
  random large write operations of the size varying from one element to
  as large as a whole stripe".  Logical addresses are row-major over
  the data array (the large-write order of §VI-C), so an op of size
  ``k`` touches ``ceil`` of ``k / n`` consecutive rows.
* :func:`user_read_stream` — Poisson single-element reads for the
  on-line reconstruction scenario (§III): the reads target the failed
  disk's data, forcing recover-and-respond with priority over rebuild
  I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WriteOp", "UserRead", "random_large_writes", "user_read_stream"]


@dataclass(frozen=True)
class WriteOp:
    """One logical write: data elements ``(i, j)`` of one stripe."""

    stripe: int
    elements: tuple[tuple[int, int], ...]

    @property
    def n_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class UserRead:
    """One user read arriving at ``time`` for data element ``(i, j)``.

    ``tenant`` names the workload class that generated the read (empty
    for single-tenant streams) — see
    :class:`~repro.workloads.openloop.TenantSpec`.
    """

    time: float
    stripe: int
    i: int
    j: int
    tenant: str = ""


def random_large_writes(
    n: int,
    n_stripes: int,
    n_ops: int = 1000,
    rng: np.random.Generator | None = None,
    rows: int | None = None,
) -> list[WriteOp]:
    """The Fig. 10 write workload.

    Each op picks a stripe uniformly, a size uniform in
    ``[1, n*rows]`` elements and a row-major aligned start so the run
    fits in the stripe.  Element order within an op is row-major
    (``j`` outer, ``i`` inner), the order large writes proceed in.
    ``rows`` is the layout's data rows per stripe (default ``n``).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    ops: list[WriteOp] = []
    stripe_elems = n * (n if rows is None else rows)
    for _ in range(n_ops):
        stripe = int(rng.integers(0, n_stripes))
        size = int(rng.integers(1, stripe_elems + 1))
        start = int(rng.integers(0, stripe_elems - size + 1))
        cells = []
        for e in range(start, start + size):
            j, i = divmod(e, n)
            cells.append((i, j))
        ops.append(WriteOp(stripe, tuple(cells)))
    return ops


def user_read_stream(
    n: int,
    n_stripes: int,
    duration_s: float,
    rate_per_s: float,
    target_disk: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[UserRead]:
    """Poisson arrivals of single-element user reads.

    ``target_disk`` restricts reads to one data disk (typically the
    failed one, the §III scenario); ``None`` spreads them uniformly.
    """
    if rng is None:
        rng = np.random.default_rng(1)
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    if target_disk is not None and not 0 <= target_disk < n:
        raise ValueError(
            f"target_disk must be in [0, {n}), got {target_disk}"
        )
    reads: list[UserRead] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            break
        stripe = int(rng.integers(0, n_stripes))
        i = int(rng.integers(0, n)) if target_disk is None else target_disk
        j = int(rng.integers(0, n))
        reads.append(UserRead(t, stripe, i, j))
    return reads
