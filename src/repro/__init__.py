"""repro — reproduction of "Shifted Element Arrangement in Mirror Disk
Arrays for High Data Availability during Reconstruction" (Luo, Shu,
Zhao — ICPP 2012).

Subpackages
-----------
* :mod:`repro.core` — the paper's contribution: element arrangements,
  properties, layouts, reconstruction/write plans, closed-form analysis.
* :mod:`repro.codes` — the XOR-only RAID 6 codes (EVENODD, RDP and
  X-Code) behind the RAID 6 baselines.
* :mod:`repro.disksim` — event-driven disk array simulator calibrated
  to the paper's Savvio 10K.3 testbed.
* :mod:`repro.raidsim` — RAID controller, rebuild and write drivers,
  availability measurement.
* :mod:`repro.workloads` — write mixes, user read streams, synthetic
  film content.
* :mod:`repro.experiments` — one driver per paper table/figure.
* :mod:`repro.obs` — metrics registry, span tracer and exporters
  (chrome://tracing JSON, metrics snapshots); ``REPRO_OBS=0`` selects
  the zero-overhead null sink.

Quick start
-----------
>>> from repro.core import shifted_mirror, traditional_mirror
>>> traditional_mirror(5).reconstruction_plan([0]).num_read_accesses
5
>>> shifted_mirror(5).reconstruction_plan([0]).num_read_accesses
1
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# subpackages load on first access: ``import repro.cli`` loads only what
# the command it runs imports
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "codes": (),
        "core": (),
        "disksim": (),
        "experiments": (),
        "nemesis": (),
        "obs": (),
        "parallel": (),
        "raidsim": (),
        "workloads": (),
    },
)

__all__ = [
    "codes",
    "core",
    "disksim",
    "obs",
    "raidsim",
    "workloads",
    "experiments",
    "__version__",
]
