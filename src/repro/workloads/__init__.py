"""Workload generation: write mixes, user read streams, synthetic content."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "film": ("DEFAULT_PAYLOAD_BYTES", "FilmSource"),
        "generator": ("UserRead", "WriteOp", "random_large_writes", "user_read_stream"),
        "openloop": (
            "DiurnalCurve",
            "FixedThrottle",
            "LatencyTargetThrottle",
            "RebuildThrottle",
            "SLOAccountant",
            "SLOSummary",
            "TenantSpec",
            "TokenBucketThrottle",
            "make_throttle",
            "open_arrivals",
        ),
    },
)

__all__ = [
    "FilmSource",
    "DEFAULT_PAYLOAD_BYTES",
    "WriteOp",
    "UserRead",
    "random_large_writes",
    "user_read_stream",
    "TenantSpec",
    "DiurnalCurve",
    "open_arrivals",
    "SLOSummary",
    "SLOAccountant",
    "RebuildThrottle",
    "FixedThrottle",
    "TokenBucketThrottle",
    "LatencyTargetThrottle",
    "make_throttle",
]
