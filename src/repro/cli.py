"""Command-line front end.

Everything a downstream user needs without writing Python::

    repro arrange --n 3 --iterate 1          # show an arrangement + properties
    repro table1 --n 5                       # Table I for n data disks
    repro plan --layout shifted-mirror-parity --n 5 --failed 1 8
    repro write-plan --layout shifted-mirror-parity --n 5 --row 2
    repro simulate rebuild --layout shifted-mirror --n 5 --failed 0
    repro simulate writes --layout mirror --n 5 --ops 200
    repro experiments --quick                # every table/figure

(also reachable as ``python -m repro ...``).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .core.arrangement import IdentityArrangement, IteratedArrangement
from .core.errors import LayoutError, UnrecoverableFailureError
from .core.properties import property_report
from .core.registry import (
    LAYOUTS,
    REGISTRY,
    build_layout,
    comparison_families,
    comparison_pair,
)

__all__ = ["main", "build_layout", "LAYOUTS"]


# ======================================================================
# subcommands
# ======================================================================


def cmd_arrange(args: argparse.Namespace) -> int:
    from .experiments.fig8 import arrangement_grid

    n = args.n
    if args.identity:
        arr, label = IdentityArrangement(n), "identity"
        grid = arrangement_grid(n, 0)
    else:
        arr, label = IteratedArrangement(n, args.iterate), f"iterate {args.iterate}"
        grid = arrangement_grid(n, args.iterate)
    print(f"Arrangement: {label} on an n={n} stripe")
    print("Mirror array contents (element numbers, Fig. 8 style):")
    for line in grid.splitlines():
        print(f"  {line}")
    rep = property_report(arr)
    print(f"Properties: P1={rep['P1']} P2={rep['P2']} P3={rep['P3']}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments.table1 import run

    print(run((args.n,)).text)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    layout = build_layout(args.layout, args.n)
    plan = layout.reconstruction_plan(args.failed)
    print(f"{layout.name}: reconstruction of disks {list(plan.failed_disks)}")
    print(f"  parallel read accesses: {plan.num_read_accesses}")
    print(f"  elements read:          {plan.total_elements_read}")
    print(f"  reads per disk:         {plan.reads_per_disk()}")
    by_method: dict[str, int] = {}
    for step in plan.steps:
        by_method[step.method.value] = by_method.get(step.method.value, 0) + 1
    print(f"  recovery steps:         {by_method}")
    if args.verbose:
        for step in plan.steps:
            srcs = ", ".join(f"({d},{r})" for d, r in step.sources[:8])
            more = " ..." if len(step.sources) > 8 else ""
            print(f"    {step.target} <- {step.method.value}[{srcs}{more}]")
    return 0


def _check_data_cell(layout, i: int, j: int) -> None:
    """Reject a data column ``i`` or data row ``j`` outside ``layout``."""
    if not 0 <= j < layout.data_rows:
        raise ValueError(
            f"row {j} is not a data row of {layout.name} "
            f"(data rows are 0..{layout.data_rows - 1})"
        )
    if not 0 <= i < layout.n:
        raise ValueError(
            f"column {i} is not a data column of {layout.name} "
            f"(data columns are 0..{layout.n - 1})"
        )


def cmd_write_plan(args: argparse.Namespace) -> int:
    layout = build_layout(args.layout, args.n)
    if args.row is not None:
        _check_data_cell(layout, 0, args.row)
        plan = layout.large_write_plan(args.row, strategy=args.strategy)
        what = f"full row {args.row}"
    else:
        cells = [tuple(map(int, e.split(","))) for e in args.element]
        for i, j in cells:
            _check_data_cell(layout, i, j)
        plan = layout.write_plan(cells, strategy=args.strategy)
        what = f"elements {cells}"
    print(f"{layout.name}: write of {what} ({args.strategy})")
    print(f"  write accesses: {plan.num_write_accesses}  "
          f"(elements written: {plan.total_elements_written})")
    print(f"  read accesses:  {plan.num_read_accesses}  "
          f"(elements read: {plan.total_elements_read})")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .raidsim.controller import RaidController
    from .workloads.generator import random_large_writes

    if args.ops < 1:
        raise ValueError(f"--ops must be at least 1, got {args.ops}")
    layout = build_layout(args.layout, args.n)
    controller = RaidController(
        layout, n_stripes=args.stripes, payload_bytes=16
    )
    if args.what == "rebuild":
        result = controller.rebuild(args.failed)
        print(f"{layout.name}: rebuilt disks {list(result.failed_disks)} over "
              f"{args.stripes} stripes")
        print(f"  makespan:           {result.makespan_s:.3f} s")
        print(f"  read throughput:    {result.read_throughput_mbps:.1f} MB/s")
        print(f"  recovered:          {result.recovered_bytes / 2**20:.0f} MB "
              f"({result.recovered_throughput_mbps:.1f} MB/s)")
        print(f"  content verified:   {result.verified}")
    else:
        rng = np.random.default_rng(args.seed)
        ops = random_large_writes(
            layout.n, args.stripes, n_ops=args.ops, rng=rng, rows=layout.data_rows
        )
        result = controller.run_write_workload(ops, window=1, rng=rng)
        print(f"{layout.name}: {result.n_ops} random large writes")
        print(f"  makespan:         {result.makespan_s:.3f} s")
        print(f"  write throughput: {result.write_throughput_mbps:.1f} MB/s (user data)")
        print(f"  redundancy intact: {controller.verify_redundancy()}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all
    from .parallel import WorkerPool

    # one persistent pool for the whole invocation: --jobs sizes it
    # once and every fan-out reuses the same workers
    with WorkerPool(args.jobs) as pool:
        for result in run_all(quick=args.quick, only=args.only, pool=pool):
            print(result)
            print()
    return 0


def cmd_svg(args: argparse.Namespace) -> int:
    from .experiments.svgplot import render_all, render_rebuild_timelines

    for path in render_all(args.outdir, quick=args.quick):
        print(f"wrote {path}")
    if args.timelines:
        for path in render_rebuild_timelines(args.outdir):
            print(f"wrote {path}")
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    from .core.reliability import compare_architectures
    from .raidsim.availability import measure_case

    layout = build_layout(args.layout, args.n)
    trad_name = args.layout.replace("shifted-", "")
    traditional = build_layout(trad_name, args.n)
    trad = measure_case(traditional, (0,), n_stripes=args.stripes)
    shif = measure_case(layout, (0,), n_stripes=args.stripes)
    cmp_ = compare_architectures(
        n_disks=layout.n_disks,
        traditional_mbps=trad.read_throughput_mbps,
        shifted_mbps=shif.read_throughput_mbps,
        fault_tolerance=layout.fault_tolerance,
        mttf_hours=args.mttf,
    )
    print(f"{trad_name} vs {args.layout} at n={args.n} (MTTF {args.mttf:.0e} h):")
    print(f"  rebuild:  {trad.read_throughput_mbps:.1f} -> "
          f"{shif.read_throughput_mbps:.1f} MB/s")
    print(f"  repair:   {cmp_.repair_hours_traditional:.2f} -> "
          f"{cmp_.repair_hours_shifted:.2f} h")
    print(f"  MTTDL:    {cmp_.mttdl_traditional_hours:.3e} -> "
          f"{cmp_.mttdl_shifted_hours:.3e} h  ({cmp_.improvement:.1f}x)")
    return 0


def _campaign_run_record(run) -> dict:
    """Machine-readable form of one arrangement's campaign outcome."""
    import dataclasses

    r = run.rebuild
    return {
        "layout": run.layout_name,
        "availability": run.availability,
        "data_survival": run.data_survival,
        "rebuild": {
            "makespan_s": r.makespan_s,
            "verified": r.verified,
            "aborted": r.aborted,
            "bytes_read": r.bytes_read,
            "bytes_written": r.bytes_written,
        },
        "user_reads": {
            "served": run.online.n_user_reads,
            "failed": run.online.failed_user_reads,
            # zero-sample aggregates are NaN -> null (the _finite contract)
            "mean_latency_s": _finite(run.online.mean_user_latency_s),
            "p95_latency_s": _finite(run.online.p95_user_latency_s),
        },
        "fault_stats": dataclasses.asdict(run.fault_stats),
    }


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
    print(f"json written to {path}", file=sys.stderr)


def _finite(x: float) -> float | None:
    """Non-finite floats become ``null`` so the JSON stays strictly parseable.

    One contract, two renderings: ``inf`` (undefined ratio denominator)
    and ``NaN`` (zero-sample aggregate) print as bare ``inf``/``nan``
    in text output (see :func:`_ratio_text`) and as ``null`` in every
    ``--json`` payload.  Documented in docs/workloads.md.
    """
    import math

    return x if math.isfinite(x) else None


def _ratio_text(x: float) -> str:
    """Text rendering of a speedup ratio: ``1.23x``, or bare ``inf``/``nan``."""
    import math

    return f"{x:.2f}x" if math.isfinite(x) else str(x)


def _check_comparison_n(family: str, n: int) -> None:
    """Reject an ``--n`` below the registry floor of either side of a pair.

    At n = 1 the shifted arrangement is the traditional one, so a
    comparison there would set an arrangement against itself.
    """
    floor = max(REGISTRY[name].min_n for name in comparison_pair(family))
    if n < floor:
        raise ValueError(
            f"--n must be at least {floor} for the {family} comparison, got {n}"
        )


def cmd_faultcampaign(args: argparse.Namespace) -> int:
    from .obs import default_registry
    from .raidsim.campaign import (
        compare_arrangements,
        default_fault_plan,
        scenario_window_s,
    )

    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    _check_comparison_n(args.family, args.n)
    if args.second_failure_at is not None and args.second_failure_at > 1:
        raise ValueError(
            "--second-failure-at is a fraction of the clean rebuild, at most 1; "
            f"got {args.second_failure_at}"
        )
    if args.seeds > 1:
        return _faultcampaign_sweep(args)
    family = args.family
    baseline_name, variant_name = comparison_pair(family)
    layout, shifted = LAYOUTS[baseline_name](args.n), LAYOUTS[variant_name](args.n)
    # one yardstick for both the second failure and the read window:
    # the slower side's clean rebuild
    clean_s = scenario_window_s(
        (layout, shifted), 1.0,
        failed_disks=(args.failed,), n_stripes=args.stripes,
    )
    second_time = None
    if args.second_failure_at is not None and args.second_failure_at > 0:
        second_time = args.second_failure_at * clean_s
    plan = default_fault_plan(
        layout.n_disks,
        seed=args.seed,
        lse_burst=args.lse_burst,
        fail_slow_disk=args.fail_slow_disk,
        fail_slow_multiplier=args.fail_slow_mult,
        second_failure_disk=args.second_failure_disk,
        second_failure_time_s=second_time,
        transient_rate=args.transient_rate,
    )
    cmp_ = compare_arrangements(
        layout,
        shifted,
        plan,
        failed_disks=(args.failed,),
        n_stripes=args.stripes,
        user_read_rate_per_s=args.rate,
        user_read_duration_s=1.5 * clean_s,
    )
    print(f"Fault campaign (seed {args.seed}) on {family} at n={args.n}:")
    print(f"  transients rate {args.transient_rate}, {args.lse_burst} latent "
          f"sector errors, fail-slow x{args.fail_slow_mult}"
          + (f", second failure at {second_time:.3f} s" if second_time else ""))
    for run in (cmp_.traditional, cmp_.shifted):
        s = run.fault_stats
        r = run.rebuild
        print(f"\n{run.layout_name}:")
        print(f"  rebuild makespan:      {r.makespan_s:.3f} s "
              f"(verified: {r.verified}, aborted: {r.aborted})")
        print(f"  user reads served:     {run.online.n_user_reads} "
              f"(mean {run.online.mean_user_latency_s * 1e3:.1f} ms, "
              f"p95 {run.online.p95_user_latency_s * 1e3:.1f} ms)")
        print(f"  availability:          {run.availability:.4f}")
        print(f"  data survival:         {run.data_survival:.4f}")
        print(f"  retries / backoff:     {s.retries} / {s.backoff_time_s * 1e3:.1f} ms")
        print(f"  rerouted reads:        {s.rerouted_reads}")
        print(f"  healed LSEs:           {s.healed_lses}")
        print(f"  abandoned requests:    {s.abandoned_requests}")
        print(f"  data-loss events:      {s.data_loss_events}")
        if s.mid_rebuild_failures:
            print(f"  mid-rebuild failures:  {list(s.mid_rebuild_failures)}")
    print(f"\navailability delta (shifted - traditional): "
          f"{cmp_.availability_delta:+.4f}")
    print(f"user latency speedup:  {_ratio_text(cmp_.latency_speedup)}")
    print(f"rebuild speedup:       {_ratio_text(cmp_.makespan_speedup)}")
    if args.json:
        from .nemesis import timeline_from_plan

        horizon = max(
            cmp_.traditional.rebuild.makespan_s, cmp_.shifted.rebuild.makespan_s
        )
        _write_json(args.json, {
            "kind": "faultcampaign",
            "family": family,
            "n": args.n,
            "seed": args.seed,
            "traditional": _campaign_run_record(cmp_.traditional),
            "shifted": _campaign_run_record(cmp_.shifted),
            "availability_delta": cmp_.availability_delta,
            "latency_speedup": _finite(cmp_.latency_speedup),
            "makespan_speedup": _finite(cmp_.makespan_speedup),
            "active_fault_timeline": timeline_from_plan(plan, horizon).to_dict(),
            "metrics": default_registry().snapshot(),
        })
    return 0


def _parse_tenant(spec: str):
    """``NAME:RATE[:PROCESS[:ZIPF]]`` → :class:`TenantSpec`."""
    from .workloads.openloop import TenantSpec

    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise ValueError(
            f"malformed tenant spec {spec!r} (expected NAME:RATE[:PROCESS[:ZIPF]])"
        )
    name, rate = parts[0], float(parts[1])
    process = parts[2] if len(parts) > 2 else "poisson"
    zipf_s = float(parts[3]) if len(parts) > 3 else 0.0
    return TenantSpec(name, rate_per_s=rate, process=process, zipf_s=zipf_s)


def _serve_result_record(r) -> dict:
    return {
        "layout": r.layout_name,
        "rebuild_makespan_s": r.rebuild_makespan_s,
        "rebuild_verified": r.rebuild_verified,
        "n_arrivals": r.n_arrivals,
        "degraded_reads": r.degraded_reads,
        "failed_reads": r.failed_reads,
        "availability": r.availability,
        "throttle": r.throttle,
        # SLOSummary.to_dict applies the same non-finite -> null
        # coercion as _finite
        "slo": r.slo.to_dict(),
        # flight-recorder snapshot + fault overlay bands ({} / [] when
        # observability is off) — what `repro obs report` renders
        "timeseries": r.timeseries,
        "overlays": list(r.overlays),
    }


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs import default_registry
    from .raidsim.serve import ServeConfig, compare_serve

    _check_comparison_n(args.family, args.n)
    tenants = (
        tuple(_parse_tenant(s) for s in args.tenant) if args.tenant else None
    )
    cfg = ServeConfig(
        family=args.family,
        n=args.n,
        n_stripes=args.stripes,
        failed_disk=args.failed,
        seed=args.seed,
        rate_per_s=args.rate,
        process=args.process,
        zipf_s=args.zipf,
        diurnal_amplitude=args.diurnal_amplitude,
        tenants=tenants,
        duration_factor=args.duration_factor,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms is not None else None,
        throttle=args.throttle,
    )
    cmp_ = compare_serve(cfg)
    trad, shift = cmp_.traditional, cmp_.shifted
    print(f"Open-loop serve (seed {args.seed}) on {args.family} at n={args.n}:")
    print(f"  {trad.n_arrivals} arrivals over {trad.slo.duration_s:.3f} s "
          f"({args.process}, throttle {args.throttle})")
    for r in (trad, shift):
        s = r.slo
        print(f"\n{r.layout_name}:")
        print(f"  rebuild makespan:   {r.rebuild_makespan_s:.3f} s "
              f"(verified: {r.rebuild_verified})")
        print(f"  served:             {s.served}/{r.n_arrivals} "
              f"({r.degraded_reads} degraded, {r.failed_reads} failed)")
        # NaN aggregates (nothing served) print as bare nan — the
        # text half of the _finite contract
        print(f"  latency p50/p99/p999: {s.p50_s * 1e3:.1f} / "
              f"{s.p99_s * 1e3:.1f} / {s.p999_s * 1e3:.1f} ms")
        print(f"  goodput:            {s.goodput_rps:.1f} reads/s")
        if cfg.deadline_s is not None:
            print(f"  deadline misses:    {s.deadline_misses} "
                  f"(deadline {cfg.deadline_s * 1e3:.0f} ms)")
        if len(s.per_tenant_served) > 1:
            mix = ", ".join(f"{t}={c}" for t, c in s.per_tenant_served)
            print(f"  per tenant:         {mix}")
    print(f"\np99 ratio (trad/shifted): {_ratio_text(cmp_.p99_ratio)}")
    print(f"rebuild speedup:          {_ratio_text(cmp_.makespan_speedup)}")
    if args.json:
        _write_json(args.json, {
            "kind": "serve",
            "family": args.family,
            "n": args.n,
            "seed": args.seed,
            "process": args.process,
            "throttle": args.throttle,
            "duration_s": trad.slo.duration_s,
            "traditional": _serve_result_record(trad),
            "shifted": _serve_result_record(shift),
            "p99_ratio": _finite(cmp_.p99_ratio),
            "makespan_speedup": _finite(cmp_.makespan_speedup),
            "metrics": default_registry().snapshot(),
        })
    return 0


def cmd_nemesis(args: argparse.Namespace) -> int:
    from .nemesis import FAULT_KINDS, HazardRates, NemesisConfig, run_nemesis_campaign
    from .obs import default_registry

    _check_comparison_n(args.family, args.n)
    rates = HazardRates(
        disk_death_per_day=args.deaths_per_day,
        fail_slow_per_day=args.fail_slow_per_day,
        transient_burst_per_day=args.bursts_per_day,
        lse_storm_per_day=args.storms_per_day,
    )
    config = NemesisConfig(
        family=args.family,
        n=args.n,
        horizon_s=args.horizon_days * 86_400.0,
        tick_s=args.tick_s,
        seed=args.seed,
        rates=rates,
        safety_budget=args.safety_budget,
        allow_excess=args.allow_excess,
        n_stripes=args.stripes,
    )
    report = run_nemesis_campaign(config, checkpoint_path=args.checkpoint)
    assert report is not None  # no tick cap on the CLI path
    determinism_ok = None
    if args.verify_determinism:
        # a second, checkpoint-free run must land on the same digest
        determinism_ok = run_nemesis_campaign(config).digest == report.digest

    sched = report.schedule
    per_kind = ", ".join(
        f"{len(sched.of_kind(kind))} {kind}" for kind in FAULT_KINDS
    )
    print(f"Nemesis campaign on {args.family} at n={args.n}: "
          f"{args.horizon_days:g} simulated days, {config.n_ticks} ticks, "
          f"seed {args.seed}")
    print(f"  schedule: {len(sched)} faults ({per_kind}); "
          f"{sched.dropped_deaths} death(s) dropped by safety budget "
          f"{sched.safety_budget}")
    for run in (report.traditional, report.shifted):
        a = run.attribution
        print(f"\n{run.layout_name}:")
        print(f"  availability:          {run.availability:.4f}")
        print(f"  mean user latency:     {run.mean_latency_s * 1e3:.1f} ms")
        print(f"  mean throughput:       {run.mean_throughput_rps:.1f} reads/s")
        print(f"  rebuild ticks:         {run.rebuild_ticks}/{run.n_ticks}")
        print(f"  excursions:            {a.n_excursions} "
              f"({a.attribution_coverage:.1%} attributed, "
              f"{len(a.unexplained)} unexplained)")
    print(f"\navailability delta (shifted - traditional): "
          f"{report.availability_delta:+.4f}")
    print(f"attribution coverage:  {report.attribution_coverage:.1%} "
          f"({report.unexplained_total} unexplained)")
    line = f"report digest:         {report.digest}"
    if determinism_ok is not None:
        line += "  [determinism verified]" if determinism_ok else "  [MISMATCH]"
    print(line)
    if args.json:
        payload = report.to_dict()
        payload["kind"] = "nemesis"
        payload["metrics"] = default_registry().snapshot()
        _write_json(args.json, payload)
    if determinism_ok is False:
        print("error: rerun from the same seed produced a different report",
              file=sys.stderr)
        return 2
    if args.strict and report.unexplained_total:
        print(f"error: {report.unexplained_total} excursion(s) overlap no "
              f"active fault", file=sys.stderr)
        return 2
    return 0


def _faultcampaign_sweep(args: argparse.Namespace) -> int:
    """``faultcampaign --seeds N``: many storms, fanned across ``--jobs``."""
    from .parallel import WorkerPool
    from .raidsim.campaign import compare_sweep

    plan_kwargs = dict(
        lse_burst=args.lse_burst,
        fail_slow_disk=args.fail_slow_disk,
        fail_slow_multiplier=args.fail_slow_mult,
        transient_rate=args.transient_rate,
    )
    with WorkerPool(args.jobs) as pool:
        if pool.n_workers > 1:
            # every sweep point instantiates both arrangements over the
            # same film — generate it once and share it with the workers
            layouts = tuple(
                build_layout(name, args.n)
                for name in comparison_pair(args.family)
            )
            n_i = max(lay.n for lay in layouts)
            n_j = max(lay.data_rows for lay in layouts)
            pool.share_film(2012, 16, args.stripes, n_i, n_j)
        sweep = compare_sweep(
            args.family,
            args.n,
            n_seeds=args.seeds,
            root_seed=args.seed,
            pool=pool,
            plan_kwargs=plan_kwargs,
            failed_disks=(args.failed,),
            n_stripes=args.stripes,
            user_read_rate_per_s=args.rate,
        )
    print(f"Fault-campaign sweep on {args.family} at n={args.n}: "
          f"{len(sweep)} storms from root seed {args.seed}")
    print(f"{'seed':>6} {'avail Δ':>9} {'latency':>9} {'survival T/S':>14}")
    for p in sweep.points:
        c = p.comparison
        lat = _ratio_text(c.latency_speedup)
        print(f"{p.seed_index:>6} {c.availability_delta:>+9.4f} {lat:>9} "
              f"{c.traditional.data_survival:>6.3f}/{c.shifted.data_survival:.3f}")
    worst_t, worst_s = sweep.worst_data_survival
    print(f"\nshifted served more reads in {sweep.shifted_wins}/{len(sweep)} storms")
    print(f"mean availability delta: {sweep.mean_availability_delta:+.4f}")
    print(f"mean latency speedup:    {_ratio_text(sweep.mean_latency_speedup)}")
    print(f"worst data survival:     traditional {worst_t:.4f}, "
          f"shifted {worst_s:.4f}")
    if args.json:
        from .obs import default_registry

        _write_json(args.json, {
            "kind": "faultcampaign-sweep",
            "family": sweep.family,
            "n": sweep.n,
            "root_seed": sweep.root_seed,
            "n_seeds": len(sweep),
            "shifted_wins": sweep.shifted_wins,
            "mean_availability_delta": sweep.mean_availability_delta,
            "mean_latency_speedup": _finite(sweep.mean_latency_speedup),
            "worst_data_survival": {"traditional": worst_t, "shifted": worst_s},
            "points": [
                {
                    "seed_index": p.seed_index,
                    "fault_seed": p.fault_seed,
                    "user_read_seed": p.user_read_seed,
                    "availability_delta": p.comparison.availability_delta,
                    "latency_speedup": _finite(p.comparison.latency_speedup),
                    "traditional": _campaign_run_record(p.comparison.traditional),
                    "shifted": _campaign_run_record(p.comparison.shifted),
                }
                for p in sweep.points
            ],
            "metrics": default_registry().snapshot(),
        })
    return 0


def cmd_leaderboard(args: argparse.Namespace) -> int:
    from .obs import default_registry
    from .parallel import WorkerPool
    from .raidsim.leaderboard import LeaderboardConfig, run_leaderboard

    config = LeaderboardConfig(
        n=args.n,
        n_stripes=args.stripes,
        seed=args.seed,
        failed_disk=args.failed,
        rate_per_s=args.rate,
        duration_factor=args.duration_factor,
        lse_burst=args.lse_burst,
        transient_rate=args.transient_rate,
        layouts=tuple(args.layouts) if args.layouts else None,
    )
    with WorkerPool(args.jobs) as pool:
        result = run_leaderboard(config, pool=pool)
    ranked = result.ranked()
    print(f"Layout leaderboard (seed {args.seed}) at n={args.n}: "
          f"{len(ranked)} layouts, {result.duration_s:.3f} s serve window")
    print(f"  identical storm (LSE burst {args.lse_burst}, transients "
          f"{args.transient_rate}) + open-loop reads at {args.rate}/s\n")
    print(f"{'#':>2} {'layout':24} {'avail':>7} {'rebuild s':>10} "
          f"{'p99 ms':>8} {'survival':>9} {'eff':>5} {'ft':>3}")
    for rank, e in enumerate(ranked, start=1):
        # NaN p99 (nothing served) prints bare nan — the _finite contract
        p99 = f"{e.degraded_p99_ms:8.1f}" if e.degraded_p99_ms == e.degraded_p99_ms \
            else f"{'nan':>8}"
        print(f"{rank:>2} {e.layout:24} {e.availability:7.4f} "
              f"{e.rebuild_makespan_s:10.3f} {p99} {e.data_survival:9.4f} "
              f"{e.storage_efficiency:5.2f} {e.fault_tolerance:>3}")
    best = ranked[0]
    print(f"\nbest: {best.layout} — {best.description}")
    payload = None
    if args.json or args.html:
        payload = {
            "kind": "leaderboard",
            **result.to_dict(),
            "entries": [
                {**e.to_dict(), "degraded_p99_ms": _finite(e.degraded_p99_ms)}
                for e in ranked
            ],
        }
    if args.json:
        _write_json(args.json, {
            **payload, "metrics": default_registry().snapshot(),
        })
    if args.html:
        from .obs.report import leaderboard_report_html, write_report

        out = write_report(args.html, leaderboard_report_html(payload))
        print(f"wrote leaderboard dashboard to {out}", file=sys.stderr)
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    from .disksim.faults import LatentSectorErrors
    from .raidsim.controller import RaidController
    from .raidsim.scrub import Scrubber

    layout = build_layout(args.layout, args.n)
    lse = LatentSectorErrors(4 * 1024 * 1024)
    controller = RaidController(
        layout, n_stripes=args.stripes, payload_bytes=16, lse=lse
    )
    rng = np.random.default_rng(args.seed)
    lse.inject_random(rng, args.errors, layout.n_disks, args.stripes * layout.rows)
    report = Scrubber(controller).run()
    print(f"{layout.name}: scrubbed {report.elements_scanned} elements in "
          f"{report.makespan_s:.2f} s ({report.scan_throughput_mbps:.0f} MB/s)")
    print(f"  latent sector errors found:    {report.errors_found}")
    print(f"  repaired from redundancy:      {report.errors_repaired}")
    if report.unrepairable:
        print(f"  UNREPAIRABLE (data at risk):   {list(report.unrepairable)}")
    else:
        print("  array is fully repaired; a rebuild is now safe")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from .obs import summarize_files

    if args.obs_what == "summary":
        print(summarize_files(metrics_path=args.metrics, trace_path=args.trace))
    elif args.obs_what == "report":
        from .obs.report import render_report, write_report

        out = write_report(args.out, render_report(args.input, title=args.title))
        print(f"wrote dashboard report to {out}")
    return 0


# ======================================================================
# parser
# ======================================================================


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability flags for simulation-running commands."""
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a chrome://tracing / Perfetto trace of every "
             "simulated I/O (one track per disk); a .jsonl suffix "
             "selects the incremental streaming writer (bounded "
             "memory, flushed per rebuild phase)",
    )
    p.add_argument(
        "--trace-sample", metavar="RATE", type=float, default=None,
        help="keep this fraction of per-request spans in the trace "
             "(controller/phase spans are always kept; the rate lands "
             "in the trace header); default 1.0",
    )
    p.add_argument(
        "--metrics-out", metavar="FILE.json", default=None,
        help="write the command's metrics snapshot (counters, gauges, "
             "histograms) to FILE.json; implies observability on",
    )
    p.add_argument(
        "--metrics-port", metavar="PORT", type=int, default=None,
        help="serve the live metrics registry in Prometheus text "
             "format on http://127.0.0.1:PORT/metrics for the "
             "duration of the command (0 picks a free port); "
             "implies observability on",
    )


def _jobs(text: str) -> int:
    """``--jobs``: a process count, or 0 for every core."""
    from .parallel import resolve_jobs

    try:
        jobs = int(text)
        resolve_jobs(jobs)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 0 (all cores) or a process count, got {text}"
        ) from None
    return jobs


def _parser() -> argparse.ArgumentParser:
    from .experiments.runner import EXPERIMENT_IDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shifted mirror disk arrays (ICPP 2012) — reproduction toolkit",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the subcommand under cProfile and print the top "
             "cumulative entries to stderr",
    )
    parser.add_argument(
        "--profile-out", metavar="FILE", default=None,
        help="with --profile, dump raw pstats to FILE instead of printing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrange", help="show an arrangement and its properties")
    p.add_argument("--n", type=int, default=3)
    p.add_argument(
        "--iterate", type=int, default=1,
        help="T-iterations: 1 is the shifted arrangement, 0 is T^0, the identity",
    )
    p.add_argument("--identity", action="store_true", help="traditional arrangement")
    p.set_defaults(func=cmd_arrange)

    p = sub.add_parser("table1", help="Table I for n data disks")
    p.add_argument("--n", type=int, default=5)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("plan", help="reconstruction plan for a failure set")
    p.add_argument("--layout", required=True, choices=sorted(LAYOUTS))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--failed", type=int, nargs="+", required=True)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("write-plan", help="write plan for elements or a row")
    p.add_argument("--layout", required=True, choices=sorted(LAYOUTS))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--row", type=int, help="full-row (large) write")
    p.add_argument("--element", nargs="+", default=[], metavar="I,J",
                   help="data elements to write: column (data disk) I, row J")
    p.add_argument("--strategy", choices=["rmw", "reconstruct"], default="rmw")
    p.set_defaults(func=cmd_write_plan)

    p = sub.add_parser("simulate", help="run the disk-array simulator")
    p.add_argument("what", choices=["rebuild", "writes"])
    p.add_argument("--layout", required=True, choices=sorted(LAYOUTS))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--failed", type=int, nargs="+", default=[0])
    p.add_argument("--stripes", type=int, default=16)
    p.add_argument("--ops", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    _add_obs_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--only", nargs="+", metavar="ID", choices=EXPERIMENT_IDS,
                   help="run only these experiments, from: "
                        + " ".join(EXPERIMENT_IDS))
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="fan experiments across this many processes (0 = all cores)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("svg", help="render Figs. 7/9/10 as SVG files")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--timelines", action="store_true",
                   help="also render per-disk rebuild Gantt timelines")
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser("reliability", help="MTTDL impact of the shifted rebuild")
    p.add_argument("--layout", default="shifted-mirror",
                   choices=[name for name in LAYOUTS if name.startswith("shifted")])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--mttf", type=float, default=1.0e6)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser(
        "faultcampaign",
        help="seeded fault-injection campaign over both arrangements",
    )
    p.add_argument("--family", default="mirror",
                   choices=comparison_families(),
                   help="comparison family (baseline vs variant layout pair "
                        "from the registry)")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--failed", type=int, default=0, help="first failed disk")
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--transient-rate", type=float, default=0.05)
    p.add_argument("--lse-burst", type=int, default=4)
    p.add_argument("--fail-slow-disk", type=int, default=None)
    p.add_argument("--fail-slow-mult", type=float, default=4.0)
    p.add_argument("--second-failure-disk", type=int, default=None)
    p.add_argument("--second-failure-at", type=float, default=0.5, metavar="FRAC",
                   help="second failure as a fraction of the clean rebuild "
                        "makespan (negative or omitted value disables)")
    p.add_argument("--rate", type=float, default=30.0, help="user reads per second")
    p.add_argument("--seeds", type=int, default=1,
                   help="run a sweep of this many independent seeded storms "
                        "(derived from --seed via SeedSequence.spawn); "
                        "the second-failure knobs apply to single runs only")
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="processes for --seeds sweeps (0 = all cores)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the full machine-readable result "
                        "(per-run FaultStats + metrics snapshot) to FILE")
    _add_obs_args(p)
    p.set_defaults(func=cmd_faultcampaign)

    p = sub.add_parser(
        "serve",
        help="open-loop traffic during rebuild, with SLO accounting",
    )
    p.add_argument("--family", default="mirror",
                   choices=comparison_families(),
                   help="comparison family (baseline vs variant layout pair "
                        "from the registry)")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--failed", type=int, default=0, help="failed disk")
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--rate", type=float, default=40.0,
                   help="mean arrivals per second (single-tenant shorthand)")
    p.add_argument("--process", default="poisson", choices=["poisson", "bursty"],
                   help="arrival process (single-tenant shorthand)")
    p.add_argument("--zipf", type=float, default=0.0,
                   help="zipf exponent for stripe popularity (0 = uniform)")
    p.add_argument("--diurnal-amplitude", type=float, default=0.0,
                   help="sinusoidal load-curve amplitude in [0, 1); the "
                        "period defaults to the serve window")
    p.add_argument("--tenant", action="append", metavar="NAME:RATE[:PROCESS[:ZIPF]]",
                   help="add a tenant to the mix (repeatable; overrides the "
                        "single-tenant shorthand flags)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="SLO deadline; reads completing later count as "
                        "misses and leave the goodput")
    p.add_argument("--throttle", default="none",
                   metavar="none|fixed:S|token:IOPS|latency:P99_MS",
                   help="rebuild throttling policy (see docs/workloads.md)")
    p.add_argument("--duration-factor", type=float, default=1.5,
                   help="serve window as a multiple of the slower "
                        "arrangement's clean rebuild makespan")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the machine-readable comparison "
                        "(SLO summaries + metrics snapshot) to FILE")
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "nemesis",
        help="continuous stochastic fault campaign with anomaly attribution",
    )
    p.add_argument("--family", default="mirror",
                   choices=comparison_families(),
                   help="comparison family (baseline vs variant layout pair "
                        "from the registry)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--stripes", type=int, default=6)
    p.add_argument("--horizon-days", type=float, default=7.0,
                   help="simulated campaign length in days")
    p.add_argument("--tick-s", type=float, default=3600.0,
                   help="sampling tick length in simulated seconds")
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--deaths-per-day", type=float, default=0.5)
    p.add_argument("--fail-slow-per-day", type=float, default=1.0)
    p.add_argument("--bursts-per-day", type=float, default=2.0)
    p.add_argument("--storms-per-day", type=float, default=1.0)
    p.add_argument("--safety-budget", type=int, default=1,
                   help="max concurrent disk deaths the scheduler may inject")
    p.add_argument("--allow-excess", action="store_true",
                   help="let deaths exceed the safety budget (chaos mode)")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="resume from / save per-tick progress to FILE")
    p.add_argument("--verify-determinism", action="store_true",
                   help="re-run from the same seed and fail on digest mismatch")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any excursion overlaps no active fault")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the full report (schedule, timeline, "
                        "per-tick samples, excursions) to FILE")
    _add_obs_args(p)
    p.set_defaults(func=cmd_nemesis)

    p = sub.add_parser(
        "leaderboard",
        help="rank every registered layout under one seeded storm + serve mix",
    )
    p.add_argument("--n", type=int, default=5, help="data disks per array")
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--failed", type=int, default=0, help="failed disk")
    p.add_argument("--rate", type=float, default=40.0,
                   help="open-loop arrivals per second")
    p.add_argument("--duration-factor", type=float, default=1.5,
                   help="serve window as a multiple of the slowest "
                        "layout's clean rebuild makespan")
    p.add_argument("--lse-burst", type=int, default=2)
    p.add_argument("--transient-rate", type=float, default=0.02)
    p.add_argument("--layouts", nargs="+", metavar="NAME", default=None,
                   choices=sorted(LAYOUTS),
                   help="restrict the roster to these registry names "
                        "(default: every leaderboard-eligible layout)")
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="fan layouts across this many processes (0 = all cores)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the ranked machine-readable result to FILE")
    p.add_argument("--html", metavar="FILE.html", default=None,
                   help="also render the ranking as an HTML dashboard section")
    _add_obs_args(p)
    p.set_defaults(func=cmd_leaderboard)

    p = sub.add_parser("scrub", help="inject latent sector errors and scrub them")
    p.add_argument("--layout", default="shifted-mirror-parity", choices=sorted(LAYOUTS))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--errors", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("obs", help="inspect exported observability artifacts")
    obs_sub = p.add_subparsers(dest="obs_what", required=True)
    ps = obs_sub.add_parser(
        "summary", help="pretty-print a metrics snapshot and/or chrome trace"
    )
    ps.add_argument("--metrics", metavar="FILE.json", default=None,
                    help="metrics snapshot written by --metrics-out")
    ps.add_argument("--trace", metavar="FILE", default=None,
                    help="trace written by --trace-out (chrome JSON or "
                         "streaming .jsonl; torn streaming files are "
                         "recovered up to the last complete record)")
    ps.set_defaults(func=cmd_obs)
    pr = obs_sub.add_parser(
        "report",
        help="render a serve or leaderboard report as a self-contained "
             "HTML dashboard (inline SVG, no external assets)",
    )
    pr.add_argument("input", metavar="FILE",
                    help="`repro serve --json` or `repro leaderboard "
                         "--json` output, or a timeseries snapshot .json")
    pr.add_argument("--out", metavar="FILE.html", default="report.html",
                    help="output HTML path (default: report.html)")
    pr.add_argument("--title", default=None,
                    help="override the report title")
    pr.set_defaults(func=cmd_obs)

    return parser


#: flags naming a file a command writes, checked before it runs
_OUTPUT_FILES = ("json", "html", "out", "checkpoint", "profile_out",
                 "trace_out", "metrics_out")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an unwritable output path fails now, not after the whole
        # command ran and printed its results
        for flag in _OUTPUT_FILES:
            path = getattr(args, flag, None)
            if path is not None and (flag != "profile_out" or args.profile):
                _check_writable(path)
        if getattr(args, "outdir", None) is not None:
            _check_creatable_dir(args.outdir)
        return _run_with_obs(args)
    except (
        ValueError,
        NotImplementedError,
        LayoutError,
        UnrecoverableFailureError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
    ) as exc:
        # domain errors (including a missing input artifact) become a
        # one-line message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. `repro obs summary | head`) — the
        # POSIX convention is a silent exit, not a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _run_with_obs(args: argparse.Namespace) -> int:
    """Dispatch one command under its requested observability exports.

    ``--trace-out`` installs a process default tracer for the duration
    of the command (every simulation constructed inside picks it up
    with zero plumbing).  A ``.jsonl`` suffix selects the *streaming*
    writer: events drain to disk incrementally (bounded buffer, flush
    per rebuild phase / sweep point) instead of accumulating, so trace
    memory no longer scales with campaign length.  ``--trace-sample``
    thins per-request spans, with the rate
    recorded in the trace header.

    ``--metrics-out`` forces observability on and scopes a fresh
    registry so the snapshot holds exactly this command's instruments;
    the file is written only after the command ran to completion.
    ``--metrics-port`` additionally serves the live registry as a
    Prometheus text exposition for the duration of the command, so a
    long sweep can be watched mid-flight with ``curl``.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    metrics_port = getattr(args, "metrics_port", None)
    if trace_out is None and metrics_out is None and metrics_port is None:
        return _dispatch(args)
    from contextlib import ExitStack

    from . import obs

    with ExitStack() as stack:
        tracer = None
        streaming = False
        if trace_out is not None:
            sample = obs.resolve_sample_rate(getattr(args, "trace_sample", None))
            streaming = str(trace_out).endswith(".jsonl")
            sink = obs.JsonlTraceSink(trace_out) if streaming else None
            tracer = obs.Tracer(sink=sink, sample=sample)
            old_tracer = obs.set_default_tracer(tracer)
            stack.callback(obs.set_default_tracer, old_tracer)
            # the final flush must run even when the command raises —
            # a partial streamed trace is exactly what a post-mortem
            # wants to read
            stack.callback(tracer.close)
        reg = None
        if metrics_out is not None or metrics_port is not None:
            old_enabled = obs.set_obs_enabled(True)
            stack.callback(obs.set_obs_enabled, old_enabled)
        if metrics_out is not None:
            reg = stack.enter_context(obs.scoped_registry())
        if metrics_port is not None:
            # pin the registry visible *now* (the scoped one when
            # --metrics-out is also given, the process default
            # otherwise): sweep points swap in their own scoped
            # registries while they run, and a scrape that followed
            # the swap would miss the outer registry the sweep merges
            # completed points into
            live_registry = obs.default_registry()
            server = obs.MetricsServer(
                port=metrics_port, registry_provider=lambda: live_registry
            )
            stack.callback(server.close)
            server.start()
            print(f"serving live metrics on {server.url}/metrics",
                  file=sys.stderr)
        rc = _dispatch(args)
        if tracer is not None:
            if streaming:
                tracer.close()
                print(f"streaming trace written to {trace_out} "
                      f"({tracer.sink.events_written} spans)", file=sys.stderr)
            else:
                path = obs.write_chrome_trace(trace_out, tracer)
                print(f"trace written to {path}", file=sys.stderr)
        if reg is not None:
            path = obs.write_metrics(metrics_out, reg)
            print(f"metrics written to {path}", file=sys.stderr)
        return rc


def _check_writable(path) -> None:
    """Raise the error opening ``path`` for writing would raise.

    Checks without creating or truncating the file: the directory must
    exist, the path must not be a directory, and the file (or, for a
    new file, its directory) must be writable.
    """
    path = Path(path)
    directory = path.parent
    if directory.exists() and not directory.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if not directory.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not os.access(path if path.exists() else directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _check_creatable_dir(path) -> None:
    """Raise the error ``os.makedirs(path, exist_ok=True)`` would raise.

    The nearest existing ancestor must be a writable directory; nothing
    is created.
    """
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if existing != path and not os.access(existing, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _dispatch(args: argparse.Namespace) -> int:
    if args.profile:
        return _run_profiled(args)
    return args.func(args)


def _run_profiled(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    rc = profiler.runcall(args.func, args)
    profiler.create_stats()
    if args.profile_out:
        pstats.Stats(profiler).dump_stats(args.profile_out)
        print(f"profile written to {args.profile_out}", file=sys.stderr)
    else:
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
