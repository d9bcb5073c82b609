"""Workload generation: write mixes, user read streams, synthetic content."""

from .film import DEFAULT_PAYLOAD_BYTES, FilmSource
from .generator import UserRead, WriteOp, random_large_writes, user_read_stream
from .openloop import (
    DiurnalCurve,
    FixedThrottle,
    LatencyTargetThrottle,
    RebuildThrottle,
    SLOAccountant,
    SLOSummary,
    TenantSpec,
    TokenBucketThrottle,
    make_throttle,
    open_arrivals,
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
