"""Workload generators for the evaluation (§VII).

* :func:`random_large_writes` — the Fig. 10 workload: "one thousand
  random large write operations of the size varying from one element to
  as large as a whole stripe".  Logical addresses are row-major over
  the data array (the large-write order of §VI-C), so an op of size
  ``k`` touches ``ceil`` of ``k / n`` consecutive rows.
* :func:`user_read_stream` — Poisson single-element reads for the
  on-line reconstruction scenario (§III): the reads target the failed
  disk's data, forcing recover-and-respond with priority over rebuild
  I/O.  It draws from raw PCG64 words by numpy's own rules, so its
  reads are bit-identical to the scalar ``exponential``/``integers``
  loop at half the cost (see ``docs/performance.md``, "Workload
  generation").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WriteOp", "UserRead", "random_large_writes", "user_read_stream"]

#: the most reads a stream may expect (rate × window): simulating this
#: many already takes minutes, and a far larger rate would draw (or
#: allocate) without end before the first read is simulated
MAX_ARRIVALS = 1_000_000


def check_expected_arrivals(rate_per_s: float, duration_s: float) -> None:
    """Refuse a stream expecting more than :data:`MAX_ARRIVALS` reads."""
    if rate_per_s * duration_s > MAX_ARRIVALS:
        raise ValueError(
            f"rate {rate_per_s:g}/s over a {duration_s:g} s window expects more "
            f"than {MAX_ARRIVALS:,} arrivals"
        )


@dataclass(frozen=True)
class WriteOp:
    """One logical write: data elements ``(i, j)`` of one stripe."""

    stripe: int
    elements: tuple[tuple[int, int], ...]

    @property
    def n_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, slots=True)
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


_MASK32 = 0xFFFF_FFFF


def _bounded_draws(bit_generator):
    """``draw(r)``: what ``Generator.integers(0, r)`` on ``bit_generator``
    returns, for ``1 <= r <= 2**32``, read from raw 64-bit words.

    numpy's rule: no draw when ``r == 1``; otherwise take 32-bit halves
    of PCG64 words, low half first, keeping the high half for the next
    draw; multiply by ``r`` and reject while the low 32 bits of the
    product fall below ``(2**32 - r) % r`` (Lemire's method).  The kept
    half lives in the closure, so the bit generator's own buffer is
    never used: mix these draws only with 64-bit ones on the same
    generator.
    """
    raw = bit_generator.random_raw
    spare = -1  # the kept high half, or -1 when there is none

    def draw(r: int) -> int:
        nonlocal spare
        if r == 1:
            return 0
        while True:
            if spare < 0:
                word = raw()
                m, spare = (word & _MASK32) * r, word >> 32
            else:
                m, spare = spare * r, -1
            low = m & _MASK32
            # the threshold is below r, so most draws skip the modulo
            if low >= r or low >= (_MASK32 + 1 - r) % r:
                return m >> 32

    return draw


def user_read_stream(
    n: int,
    n_stripes: int,
    duration_s: float,
    rate_per_s: float,
    target_disk: int | None = None,
    seed: int = 1,
) -> list[UserRead]:
    """Poisson arrivals of single-element user reads.

    ``target_disk`` restricts reads to one data disk (typically the
    failed one, the §III scenario); ``None`` spreads them uniformly.
    The reads are those of the scalar loop over
    ``numpy.random.default_rng(seed)`` that draws, per read,
    ``exponential(1 / rate_per_s)``, then ``integers(0, n_stripes)``,
    ``integers(0, n)`` (unless pinned) and ``integers(0, n)``, bit for
    bit: each gap is ``(1 / rate_per_s) * standard_exponential()``,
    which is how numpy computes ``exponential``, and each index comes
    from :func:`_bounded_draws`.
    """
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    if target_disk is not None and not 0 <= target_disk < n:
        raise ValueError(
            f"target_disk must be in [0, {n}), got {target_disk}"
        )
    if not (0 < n <= _MASK32 + 1 and 0 < n_stripes <= _MASK32 + 1):
        raise ValueError(
            f"n and n_stripes must be in [1, 2**32], got {n} and {n_stripes}"
        )
    check_expected_arrivals(rate_per_s, duration_s)
    rng = np.random.default_rng(seed)
    gap = rng.standard_exponential
    below = _bounded_draws(rng.bit_generator)
    scale = 1.0 / rate_per_s
    reads: list[UserRead] = []
    t = 0.0
    while True:
        t += scale * gap()
        if t >= duration_s:
            break
        stripe = below(n_stripes)
        i = below(n) if target_disk is None else target_disk
        j = below(n)
        reads.append(UserRead(t, stripe, i, j))
    return reads
