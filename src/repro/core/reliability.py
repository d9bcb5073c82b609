"""Reliability analysis: what faster reconstruction buys in MTTDL.

The paper motivates its work with reliability ("the probability of one
or concurrent multiple disk failures is becoming higher and higher",
§I): while a failed disk rebuilds, the array runs with reduced
redundancy, and a further failure during that *vulnerability window*
can lose data.  Faster reconstruction — the shifted arrangement's whole
point — shrinks the window and therefore raises the mean time to data
loss (MTTDL).

This module provides the classic Markov-model MTTDL closed forms
(Patterson/Gibson/Katz-style, exponential failure and repair rates) and
a bridge from simulated rebuild throughput to repair time, so the
Fig. 9 measurements translate directly into reliability factors.

All times are in hours, matching datasheet MTTF conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "mttdl_single_fault",
    "mttdl_double_fault",
    "repair_time_hours",
    "ReliabilityComparison",
    "compare_architectures",
]


def _solve(chain, mttf_hours: float, repair_hours: float) -> float:
    """``chain(failure rate, repair rate)``, checked to be a usable MTTDL.

    An MTTF so small or so large that the chain over- or underflows
    has no finite positive MTTDL, and is refused.
    """
    if mttf_hours <= 0 or repair_hours <= 0:
        raise ValueError("MTTF and repair time must be positive")
    try:
        mttdl = chain(1.0 / mttf_hours, 1.0 / repair_hours)
    except (OverflowError, ZeroDivisionError):
        mttdl = math.nan
    if not (math.isfinite(mttdl) and mttdl > 0):
        raise ValueError(
            f"MTTF {mttf_hours:g} h with a {repair_hours:g} h repair gives no "
            "finite positive MTTDL"
        )
    return mttdl


def mttdl_single_fault(n_disks: int, mttf_hours: float, repair_hours: float) -> float:
    """MTTDL of a one-fault-tolerant array (e.g. the mirror method).

    Markov model: data loss when a second disk (of the remaining
    ``n_disks - 1``) fails within the repair window of the first.  With
    failure rate ``l = 1/MTTF`` per disk and repair rate ``u = 1/repair``:

    .. math::  MTTDL = \\frac{(2n-1)\\lambda + \\mu}{n(n-1)\\lambda^2}
               \\approx \\frac{MTTF^2}{n(n-1) \\cdot repair}

    (the standard approximation for ``u >> l``, which we return in its
    exact small-chain form).
    """
    if n_disks < 2:
        raise ValueError(f"a redundant array needs >= 2 disks, got {n_disks}")
    n = n_disks
    return _solve(
        lambda lam, mu: ((2 * n - 1) * lam + mu) / (n * (n - 1) * lam**2),
        mttf_hours,
        repair_hours,
    )


def mttdl_double_fault(n_disks: int, mttf_hours: float, repair_hours: float) -> float:
    """MTTDL of a two-fault-tolerant array (mirror+parity, RAID 6).

    Three-state Markov chain (all disks up -> one down -> two down ->
    loss), exponential rates, one concurrent repair:

    .. math::  MTTDL \\approx \\frac{MTTF^3}{n(n-1)(n-2)\\,repair^2}

    computed here from the exact chain solution.
    """
    if n_disks < 3:
        raise ValueError(f"a two-fault-tolerant array needs >= 3 disks, got {n_disks}")
    n = n_disks
    return _solve(lambda lam, mu: _double_fault_chain(n, lam, mu), mttf_hours, repair_hours)


def _double_fault_chain(n: int, lam: float, mu: float) -> float:
    # Exact expected absorption time from state 0 of the chain
    #   0 --n*lam--> 1 --(n-1)lam--> 2 --(n-2)lam--> loss
    # with repairs 1 --mu--> 0 and 2 --mu--> 1.
    a0, a1, a2 = n * lam, (n - 1) * lam, (n - 2) * lam
    # Solve T_i = 1/r_i + sum_j P_ij T_j for expected times to absorption.
    # r_0 = a0; r_1 = a1 + mu; r_2 = a2 + mu.
    # T_2 = 1/r_2 + (mu/r_2) T_1
    # T_1 = 1/r_1 + (a1/r_1) T_2 + (mu/r_1) T_0
    # T_0 = 1/a0 + T_1
    r1 = a1 + mu
    r2 = a2 + mu
    # substitute T_0 and T_2 into T_1:
    # T_1 = 1/r1 + (a1/r1)(1/r2 + (mu/r2) T_1) + (mu/r1)(1/a0 + T_1)
    coeff = 1.0 - (a1 * mu) / (r1 * r2) - mu / r1
    const = 1.0 / r1 + a1 / (r1 * r2) + mu / (r1 * a0)
    t1 = const / coeff
    return 1.0 / a0 + t1


def repair_time_hours(
    disk_capacity_bytes: float, rebuild_throughput_mbps: float
) -> float:
    """Repair window implied by a measured rebuild throughput.

    The rebuild must regenerate the failed disk's full capacity; the
    data is produced as fast as its inputs can be read, so the Fig. 9
    read throughput (per failed disk) bounds the repair rate.
    """
    if rebuild_throughput_mbps <= 0:
        raise ValueError("rebuild throughput must be positive")
    seconds = disk_capacity_bytes / (rebuild_throughput_mbps * 1024 * 1024)
    return seconds / 3600.0


@dataclass(frozen=True)
class ReliabilityComparison:
    """MTTDL of one architecture under two rebuild speeds."""

    name: str
    n_disks: int
    repair_hours_traditional: float
    repair_hours_shifted: float
    mttdl_traditional_hours: float
    mttdl_shifted_hours: float

    @property
    def improvement(self) -> float:
        return self.mttdl_shifted_hours / self.mttdl_traditional_hours


def compare_architectures(
    n_disks: int,
    traditional_mbps: float,
    shifted_mbps: float,
    fault_tolerance: int,
    disk_capacity_bytes: float = 300e9,
    mttf_hours: float = 1.0e6,
    name: str = "",
) -> ReliabilityComparison:
    """MTTDL impact of the shifted arrangement's faster rebuild.

    Feeds two measured rebuild throughputs (e.g. a Fig. 9 point) into
    the matching Markov model.  For a one-fault array the MTTDL scales
    ~1/repair, so the reliability gain approaches the throughput gain;
    for two-fault arrays it scales ~1/repair^2 and the gain compounds.
    """
    model = mttdl_single_fault if fault_tolerance == 1 else mttdl_double_fault
    rt = repair_time_hours(disk_capacity_bytes, traditional_mbps)
    rs = repair_time_hours(disk_capacity_bytes, shifted_mbps)
    return ReliabilityComparison(
        name=name or f"{n_disks}-disk ft{fault_tolerance}",
        n_disks=n_disks,
        repair_hours_traditional=rt,
        repair_hours_shifted=rs,
        mttdl_traditional_hours=model(n_disks, mttf_hours, rt),
        mttdl_shifted_hours=model(n_disks, mttf_hours, rs),
    )
