#!/usr/bin/env python3
"""A rebuild under fire: fault-injection campaign over both arrangements.

The paper rebuilds under clean conditions; this walkthrough stress-tests
the same comparison under a seeded storm:

1. a burst of latent sector errors lurks on the surviving disks;
2. one drive serves everything 4x slower (fail-slow, not fail-stop);
3. transient media errors succeed only after a few retries, so the
   controller's exponential-backoff retry policy matters;
4. halfway through the rebuild a *second* disk dies outright.

The identical :class:`~repro.disksim.faultplan.FaultPlan` (same seed,
same schedule) runs against the traditional and the shifted
mirror-with-parity arrangement; reconstruction is byte-verified where
recoverable and counted as data loss where not, and the user-visible
availability delta is printed at the end.

Run::

    python examples/fault_campaign.py [n]
"""

from __future__ import annotations

import sys

from repro.core import shifted_mirror_parity, traditional_mirror_parity
from repro.raidsim import (
    RetryPolicy,
    clean_rebuild_makespan,
    compare_arrangements,
    default_fault_plan,
)


def main(n: int = 4) -> int:
    n_stripes = 8
    layout = traditional_mirror_parity(n)
    shifted = shifted_mirror_parity(n)

    # 1. size the storm off a clean rebuild of disk 0
    clean_s = clean_rebuild_makespan(layout, (0,), n_stripes=n_stripes)
    print(f"clean rebuild of disk 0 takes {clean_s:.3f} s — scheduling a "
          f"second failure at 50% of that")

    # 2. one declarative, seeded fault plan for both arrangements
    plan = default_fault_plan(
        layout.n_disks,
        seed=2012,
        lse_burst=4,
        fail_slow_disk=layout.n_disks - 1,
        fail_slow_multiplier=4.0,
        second_failure_disk=layout.n_disks - 2,
        second_failure_time_s=0.5 * clean_s,
        transient_rate=0.05,
    )
    policy = RetryPolicy(max_attempts=4, backoff_base_s=0.002)

    # 3. run the campaign: online rebuild + user reads, same storm twice
    cmp_ = compare_arrangements(
        layout,
        shifted,
        plan,
        failed_disks=(0,),
        n_stripes=n_stripes,
        retry_policy=policy,
        user_read_rate_per_s=30.0,
    )

    for run in (cmp_.traditional, cmp_.shifted):
        s = run.fault_stats
        r = run.rebuild
        print(f"\n{run.layout_name}")
        print(f"  rebuild: {r.makespan_s:.3f} s, verified={r.verified}, "
              f"aborted={r.aborted}")
        print(f"  user reads: {run.online.n_user_reads} served, mean "
              f"{run.online.mean_user_latency_s * 1e3:.0f} ms, "
              f"{run.online.failed_user_reads} failed")
        print(f"  injected: {s.transient_errors} transients, "
              f"{len(s.mid_rebuild_failures)} mid-rebuild death(s)")
        print(f"  recovery: {s.retries} retries "
              f"({s.backoff_time_s * 1e3:.0f} ms backoff), "
              f"{s.rerouted_reads} rerouted, {s.data_loss_events} lost")
        print(f"  availability {run.availability:.4f}, "
              f"data survival {run.data_survival:.4f}")

    print(f"\navailability delta (shifted - traditional): "
          f"{cmp_.availability_delta:+.4f}")
    print(f"user latency speedup: {cmp_.latency_speedup:.2f}x, "
          f"rebuild speedup: {cmp_.makespan_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 4))
