"""Experiment: reproduce Fig. 10 (paper §VII-B).

Write throughput under one thousand random large writes (sizes from a
single element up to a whole stripe), identical workload per layout:

* **Fig. 10(a)** — mirror method, traditional vs shifted;
* **Fig. 10(b)** — mirror method with parity (read-modify-write parity
  updates), traditional vs shifted.

Expected shape: traditional and shifted are "about the same to a large
extent" (the shifted variant pays slightly more head positioning on
the mirror array), the mirror method outperforms the parity variant
(whose writes read old data and parity first), and both grow with n.
After the run, every replica and parity element is re-verified against
its definition.
"""

from __future__ import annotations

from ..core.layouts import (
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from ..raidsim.writes import measure_write_throughput
from .reporting import ExperimentResult, format_series

__all__ = ["run_a", "run_b"]


def _series(builders, n_values, n_ops, strategy):
    out = {name: [] for name in builders}
    intact = True
    for n in n_values:
        for name, builder in builders.items():
            point = measure_write_throughput(
                builder(n), n_ops=n_ops, strategy=strategy, window=1
            )
            out[name].append(point.write_throughput_mbps)
            intact &= point.redundancy_intact
    return out, intact


def run_a(n_values=(3, 4, 5, 6, 7), n_ops: int = 200) -> ExperimentResult:
    """Fig. 10(a): the mirror method under the random-write workload."""
    builders = {
        "traditional mirror (MB/s)": traditional_mirror,
        "shifted mirror (MB/s)": shifted_mirror,
    }
    series, intact = _series(builders, n_values, n_ops, strategy="rmw")
    trad = series["traditional mirror (MB/s)"]
    shif = series["shifted mirror (MB/s)"]
    series["shifted/traditional"] = [s / t for s, t in zip(shif, trad)]
    text = format_series("n", list(n_values), series, precision=2)
    text += f"\nredundancy intact after workload: {intact}"
    return ExperimentResult(
        experiment_id="fig10a",
        description="Write throughput, mirror method (random large writes)",
        text=text,
        data={"n": list(n_values), **series, "intact": intact},
    )


def run_b(n_values=(3, 4, 5, 6, 7), n_ops: int = 200) -> ExperimentResult:
    """Fig. 10(b): the mirror method with parity (RMW updates)."""
    builders = {
        "traditional mirror+parity (MB/s)": traditional_mirror_parity,
        "shifted mirror+parity (MB/s)": shifted_mirror_parity,
    }
    series, intact = _series(builders, n_values, n_ops, strategy="rmw")
    trad = series["traditional mirror+parity (MB/s)"]
    shif = series["shifted mirror+parity (MB/s)"]
    series["shifted/traditional"] = [s / t for s, t in zip(shif, trad)]
    text = format_series("n", list(n_values), series, precision=2)
    text += f"\nredundancy intact after workload: {intact}"
    return ExperimentResult(
        experiment_id="fig10b",
        description="Write throughput, mirror method with parity (random large writes)",
        text=text,
        data={"n": list(n_values), **series, "intact": intact},
    )


if __name__ == "__main__":  # pragma: no cover
    for result in (run_a(), run_b()):
        print(result)
        print()
