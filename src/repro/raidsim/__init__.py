"""RAID-level simulation: controllers, rebuild drivers, measurements."""

from .availability import (
    AvailabilityPoint,
    average_reconstruction_throughput,
    measure_case,
)
from .campaign import (
    CampaignComparison,
    CampaignRun,
    SweepPoint,
    SweepResult,
    clean_rebuild_makespan,
    compare_arrangements,
    compare_sweep,
    default_fault_plan,
    derive_sweep_seeds,
    run_campaign,
    run_scenario,
    scenario_window_s,
)
from .controller import (
    FaultStats,
    RaidController,
    RebuildCheckpoint,
    RebuildResult,
    RetryPolicy,
    WriteResult,
)
from .degraded import DegradedArray, DegradedStats
from .leaderboard import (
    LeaderboardConfig,
    LeaderboardEntry,
    LeaderboardResult,
    run_leaderboard,
    run_leaderboard_entry,
)
from .reconstruction import OnlineReconstruction, OnlineResult, degraded_read_sources
from .scrub import ScrubReport, Scrubber
from .serve import (
    ServeComparison,
    ServeConfig,
    ServeResult,
    compare_serve,
    run_serve,
    serve_arrivals,
)
from .writes import WritePoint, measure_write_throughput

__all__ = [
    "RaidController",
    "RebuildResult",
    "WriteResult",
    "RetryPolicy",
    "FaultStats",
    "RebuildCheckpoint",
    "CampaignRun",
    "CampaignComparison",
    "default_fault_plan",
    "clean_rebuild_makespan",
    "scenario_window_s",
    "run_scenario",
    "run_campaign",
    "compare_arrangements",
    "SweepPoint",
    "SweepResult",
    "derive_sweep_seeds",
    "compare_sweep",
    "AvailabilityPoint",
    "measure_case",
    "average_reconstruction_throughput",
    "OnlineReconstruction",
    "OnlineResult",
    "degraded_read_sources",
    "ServeConfig",
    "ServeResult",
    "ServeComparison",
    "serve_arrivals",
    "run_serve",
    "compare_serve",
    "LeaderboardConfig",
    "LeaderboardEntry",
    "LeaderboardResult",
    "run_leaderboard",
    "run_leaderboard_entry",
    "Scrubber",
    "ScrubReport",
    "DegradedArray",
    "DegradedStats",
    "WritePoint",
    "measure_write_throughput",
]
