"""Experiment: reproduce Fig. 9 (paper §VII-A).

Average read throughput during reconstruction on the simulated Savvio
array, n = 3..7 data disks:

* **Fig. 9(a)** — mirror method, every single-disk failure enumerated;
* **Fig. 9(b)** — mirror method with parity, every double-disk failure
  enumerated (105 cases at n = 7: C(15, 2)).

Expected shape (the paper's measured result): the traditional curves
stay roughly stable while the shifted curves grow with n thanks to
I/O parallelism, for an improvement factor between 1.54 and 4.55.
Every reconstruction is verified byte-for-byte against the original
content, mirroring the paper's post-check.
"""

from __future__ import annotations

from ..core.layouts import (
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from ..raidsim.availability import average_reconstruction_throughput
from .reporting import ExperimentResult, format_series

__all__ = ["run_a", "run_b"]


def _series(builders, n_values, n_failed, n_stripes):
    out = {name: [] for name in builders}
    verified = True
    for n in n_values:
        for name, builder in builders.items():
            point = average_reconstruction_throughput(
                (lambda n=n, b=builder: b(n)), n_failed=n_failed, n_stripes=n_stripes
            )
            out[name].append(point.mean_read_throughput_mbps)
            verified &= point.all_verified
    return out, verified


def run_a(n_values=(3, 4, 5, 6, 7), n_stripes: int = 16) -> ExperimentResult:
    """Fig. 9(a): the mirror method under every single-disk failure."""
    builders = {
        "traditional mirror (MB/s)": traditional_mirror,
        "shifted mirror (MB/s)": shifted_mirror,
    }
    series, verified = _series(builders, n_values, n_failed=1, n_stripes=n_stripes)
    trad = series["traditional mirror (MB/s)"]
    shif = series["shifted mirror (MB/s)"]
    ratios = [s / t for s, t in zip(shif, trad)]
    series["improvement (x)"] = ratios
    text = format_series("n", list(n_values), series, precision=2)
    text += f"\nall reconstructions verified: {verified}"
    return ExperimentResult(
        experiment_id="fig9a",
        description="Average read throughput during reconstruction, mirror method",
        text=text,
        data={"n": list(n_values), **series, "verified": verified},
    )


def run_b(n_values=(3, 4, 5, 6, 7), n_stripes: int = 12) -> ExperimentResult:
    """Fig. 9(b): mirror with parity under every double-disk failure."""
    builders = {
        "traditional mirror+parity (MB/s)": traditional_mirror_parity,
        "shifted mirror+parity (MB/s)": shifted_mirror_parity,
    }
    series, verified = _series(builders, n_values, n_failed=2, n_stripes=n_stripes)
    trad = series["traditional mirror+parity (MB/s)"]
    shif = series["shifted mirror+parity (MB/s)"]
    series["improvement (x)"] = [s / t for s, t in zip(shif, trad)]
    text = format_series("n", list(n_values), series, precision=2)
    text += f"\nall reconstructions verified: {verified}"
    return ExperimentResult(
        experiment_id="fig9b",
        description="Average read throughput during reconstruction, mirror method with parity",
        text=text,
        data={"n": list(n_values), **series, "verified": verified},
    )


if __name__ == "__main__":  # pragma: no cover
    for result in (run_a(), run_b()):
        print(result)
        print()
