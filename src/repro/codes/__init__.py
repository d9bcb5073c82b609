"""XOR-only RAID 6 codes: the paper's baselines and the vertical X-Code.

Contents
--------
* :mod:`~repro.codes.evenodd` / :mod:`~repro.codes.rdp` — the two
  classic horizontal RAID 6 codes the paper cites as baselines (Fig. 7),
  shortened to ``n`` data disks;
* :mod:`~repro.codes.xcode` — the vertical X-Code.

Each code has an encoder and declares its parity equations: cell sets
whose bytes XOR to zero.  The layouts encode through the codes
(:meth:`repro.core.layouts.Layout.encode`) and decode by solving their
equations (:meth:`~repro.core.layouts.Layout.decode`); the paper's own
methods need only replica copies and row XOR parity, which the layouts
compute directly.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "evenodd": ("EvenOdd", "is_prime", "smallest_prime_at_least"),
        "rdp": ("RDP",),
        "xcode": ("XCode",),
    },
)

__all__ = [
    "EvenOdd",
    "RDP",
    "XCode",
    "is_prime",
    "smallest_prime_at_least",
]
