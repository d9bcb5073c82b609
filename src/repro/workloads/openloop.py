"""Open-loop traffic: arrivals fire on the wall clock, not on completions.

The closed-loop probe of :func:`~repro.workloads.generator.user_read_stream`
answers "how fast is one read" — but the paper's availability claim is
about what a *population* of viewers experiences while the rebuild
runs, and a population does not slow down because the array is busy.
This module models that: seeded arrival processes generate timestamped
reads that are submitted at their arrival times regardless of
completion backpressure (the queues absorb the difference, which is
exactly where tail latency lives).

Three independently composable axes:

* **arrival process** — Poisson (memoryless) or on/off bursty (a
  Markov-modulated Poisson process, the standard self-similar-ish
  stand-in: exponential ON/OFF sojourns, arrivals only while ON at a
  rate inflated so the long-run mean matches);
* **diurnal curve** — a sinusoidal rate modulation applied by
  Lewis–Shedler thinning, so load peaks and troughs inside the serve
  window;
* **popularity** — Zipfian film popularity over stripes (rank 0 = the
  hottest title) with uniform element choice inside a stripe.

Per-tenant mixes compose these: each :class:`TenantSpec` draws from its
own :class:`numpy.random.SeedSequence` child, so a tenant can be added
to the mix without perturbing any other tenant's stream — and the whole
arrival list is a pure function of ``(spec, seed)``, bit-identical
across processes (the WorkerPool bit-identity suite pins this).

The module also owns the serve tier's **SLO accounting**
(:class:`SLOAccountant`: streaming latency quantile gauges, goodput,
queue depth — wired into :mod:`repro.obs` and thus the Prometheus
endpoint) and the **rebuild throttling policies**
(:class:`TokenBucketThrottle`, :class:`LatencyTargetThrottle`) that
:meth:`repro.raidsim.controller.RaidController.rebuild` consults per
stripe to trade rebuild speed against tail latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..obs import default_recorder, default_registry, percentile
from ..obs.metrics import FOLD_LOCK
from .generator import UserRead

__all__ = [
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

ARRIVAL_PROCESSES = ("poisson", "bursty")

#: mean ON and OFF sojourns of the bursty process, in seconds
BURST_ON_S = 2.0
BURST_OFF_S = 6.0


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One workload class inside an open-loop mix.

    ``zipf_s = 0`` spreads reads uniformly over stripes; larger
    exponents concentrate them on the low-numbered (popular) titles.
    The bursty process alternates exponential ON (:data:`BURST_ON_S`
    mean) and OFF (:data:`BURST_OFF_S` mean) sojourns; ``rate_per_s``
    is always the long-run mean rate.
    """

    name: str
    rate_per_s: float
    process: str = "poisson"
    zipf_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_per_s}")
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r} "
                f"(expected one of {ARRIVAL_PROCESSES})"
            )
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")


@dataclass(frozen=True)
class DiurnalCurve:
    """Sinusoidal load modulation: ``1 + amplitude * sin(2πt/period)``.

    ``amplitude`` must sit in ``[0, 1)`` so the rate never goes
    negative; the peak factor ``1 + amplitude`` is what the thinning
    envelope uses.
    """

    amplitude: float = 0.5
    period_s: float = 86_400.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period_s <= 0:
            raise ValueError(f"period must be positive, got {self.period_s}")

    @property
    def peak_factor(self) -> float:
        return 1.0 + self.amplitude

    def factor(self, t: np.ndarray) -> np.ndarray:
        """Rate multiplier at time(s) ``t`` (vectorized)."""
        return 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * np.asarray(t) / self.period_s
        )


def _homogeneous_arrivals(
    rate_per_s: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Poisson arrival instants in ``[0, duration_s)`` at a constant rate."""
    chunk = max(16, int(rate_per_s * duration_s * 1.25) + 16)
    times = np.empty(0, dtype=np.float64)
    t = 0.0
    while t < duration_s:
        gaps = rng.exponential(1.0 / rate_per_s, size=chunk)
        new = t + np.cumsum(gaps)
        times = np.concatenate([times, new])
        t = float(new[-1])
    return times[times < duration_s]


def _onoff_rate_fn(
    spec: TenantSpec, duration_s: float, rng: np.random.Generator
):
    """Materialize the MMPP ON/OFF timeline; returns ``(rate(t), peak)``.

    The ON-state rate is inflated by ``(on + off) / on`` so the
    long-run mean over the alternating sojourns equals ``rate_per_s``.
    """
    on, off = BURST_ON_S, BURST_OFF_S
    burst_rate = spec.rate_per_s * (on + off) / on
    edges = [0.0]
    t = 0.0
    while t < duration_s:
        t += float(rng.exponential(on))  # ON sojourn
        edges.append(min(t, duration_s))
        t += float(rng.exponential(off))  # OFF sojourn
        edges.append(min(t, duration_s))
    bounds = np.array(edges[1:], dtype=np.float64)

    def rate(times: np.ndarray) -> np.ndarray:
        # even interval index (counting from 0) = ON
        idx = np.searchsorted(bounds, times, side="right")
        return np.where(idx % 2 == 0, burst_rate, 0.0)

    return rate, burst_rate


def _tenant_arrival_times(
    spec: TenantSpec,
    duration_s: float,
    diurnal: DiurnalCurve | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """One tenant's arrival instants via Lewis–Shedler thinning.

    Candidates come from a homogeneous process at the joint peak rate
    (process peak × diurnal peak); each survives with probability
    ``rate(t) / peak``.  Everything is a pure function of the rng
    stream, so the times are bit-reproducible.
    """
    if spec.process == "bursty":
        rate_fn, peak = _onoff_rate_fn(spec, duration_s, rng)
    else:
        base = spec.rate_per_s
        rate_fn, peak = (lambda t: np.full(np.shape(t), base)), base
    if diurnal is not None:
        inner = rate_fn
        rate_fn = lambda t: inner(t) * diurnal.factor(t)  # noqa: E731
        peak *= diurnal.peak_factor
    candidates = _homogeneous_arrivals(peak, duration_s, rng)
    accept = rng.random(candidates.size) * peak < rate_fn(candidates)
    return candidates[accept]


def _zipf_stripes(
    n_stripes: int, s: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` stripe picks under a Zipf(s) popularity law (rank 0 hottest)."""
    if s <= 0:
        return rng.integers(0, n_stripes, size=count)
    weights = (np.arange(1, n_stripes + 1, dtype=np.float64)) ** (-s)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count), side="right")


def open_arrivals(
    n: int,
    n_stripes: int,
    duration_s: float,
    tenants,
    diurnal: DiurnalCurve | None = None,
    seed: int = 0,
) -> list[UserRead]:
    """The merged open-loop arrival stream of a tenant mix.

    Each tenant draws from its own :class:`numpy.random.SeedSequence`
    child of ``seed`` (spawn order = tenant order), so streams are
    independent and the merge is a pure function of
    ``(n, n_stripes, duration_s, tenants, diurnal, seed)`` —
    bit-identical in any process.  The merge sort is stable, so
    same-instant arrivals keep tenant order.
    """
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    reads: list[UserRead] = []
    children = np.random.SeedSequence(seed).spawn(len(tenants))
    for spec, child in zip(tenants, children):
        rng = np.random.default_rng(child)
        times = _tenant_arrival_times(spec, duration_s, diurnal, rng)
        count = times.size
        stripes = _zipf_stripes(n_stripes, spec.zipf_s, count, rng)
        disks = rng.integers(0, n, size=count)
        rows = rng.integers(0, n, size=count)
        reads.extend(
            UserRead(t, st, i, j, spec.name)
            for t, st, i, j in zip(
                times.tolist(), stripes.tolist(), disks.tolist(), rows.tolist()
            )
        )
    reads.sort(key=lambda r: r.time)
    return reads


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SLOSummary:
    """What the users saw: exact percentiles, goodput, misses.

    Latency aggregates are ``NaN`` when nothing completed (the
    zero-sample contract shared with
    :class:`~repro.raidsim.reconstruction.OnlineResult`); JSON emitters
    coerce them to ``null``.  Percentiles are *exact* (sorted-sample),
    not the streaming estimates the live gauges show — the summary is
    the bit-reproducible artifact, the gauges are the mid-flight view.
    """

    served: int
    failed: int
    deadline_misses: int
    duration_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    mean_s: float
    max_s: float
    #: reads that met the deadline (all of them when no deadline is
    #: set), per second of serve window
    goodput_rps: float
    per_tenant_served: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        import math

        def fin(x: float):
            return x if math.isfinite(x) else None

        return {
            "served": self.served,
            "failed": self.failed,
            "deadline_misses": self.deadline_misses,
            "duration_s": self.duration_s,
            "p50_s": fin(self.p50_s),
            "p99_s": fin(self.p99_s),
            "p999_s": fin(self.p999_s),
            "mean_s": fin(self.mean_s),
            "max_s": fin(self.max_s),
            "goodput_rps": self.goodput_rps,
            "per_tenant_served": dict(self.per_tenant_served),
        }


class SLOAccountant:
    """Streaming SLO accounting for one serve run.

    Every completed read lands here: the ``serve.read_latency_s``
    histogram and per-tenant counters go to :mod:`repro.obs` (hence the
    Prometheus endpoint), and every ``gauge_every`` completions the live
    ``serve.latency_quantile_s`` gauges are refreshed from that
    histogram's :func:`~repro.obs.metrics.bucket_quantile` (covering
    bucket's upper bound clamped to the max — deterministic, O(1)
    memory).  :meth:`summary` computes the final exact percentiles from
    the retained samples.

    :meth:`record` only appends the latency and tenant; :meth:`flush`
    folds what is pending into the registry in one pass.  It runs from
    :func:`~repro.raidsim.campaign.run_scenario` before it returns, from
    :meth:`summary`, and from every read of the registry (a flush hook),
    and leaves each instrument — the quantile gauges included — exactly
    where per-read updates would have.
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        registry=None,
        gauge_every: int = 64,
        recorder=None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_s}")
        self.deadline_s = deadline_s
        # flight-recorder series: per-tenant latency + queue depth over
        # the simulated clock, fed when callers pass `t_s` to `record`
        # (None when no recorder is installed — nothing is retained)
        self._rec = recorder if recorder is not None else default_recorder()
        self._ts_lat: dict[str, object] = {}
        self._ts_depth = (
            self._rec.series(
                "serve.queue_depth", "in-flight + queued requests over simulated time"
            )
            if self._rec is not None
            else None
        )
        self.gauge_every = max(1, gauge_every)
        self._lat: list[float] = []
        #: tenants of the reads past the fold watermark ``_folded``
        self._pending_tenants: list[str] = []
        self._folded = 0
        self._misses = 0
        self._failed = 0
        self._tenants: dict[str, int] = {}
        reg = registry if registry is not None else default_registry()
        self._obs_reads = reg.counter("serve.reads_total", "open-loop reads served")
        self._obs_miss = reg.counter(
            "serve.deadline_miss_total", "reads completing past the SLO deadline"
        ).labels()
        self._obs_hist = reg.histogram(
            "serve.read_latency_s",
            "arrival-to-completion latency of open-loop reads",
        ).labels()
        quant = reg.gauge(
            "serve.latency_quantile_s",
            "latency quantile of serve.read_latency_s (bucket upper bound, clamped to the max)",
        )
        self._obs_q = {
            0.50: quant.labels(q="0.5"),
            0.99: quant.labels(q="0.99"),
            0.999: quant.labels(q="0.999"),
        }
        self._obs_depth = reg.gauge(
            "serve.queue_depth", "in-flight + queued requests at last completion"
        ).labels()
        reg.add_flush_hook(self.flush)

    @property
    def served(self) -> int:
        return len(self._lat)

    def record(self, latency_s: float, tenant: str = "", t_s: float | None = None) -> None:
        """Account one completed read.

        ``t_s`` is the completion's simulated time; when given (and a
        flight recorder is installed) the latency also lands in the
        per-tenant ``serve.latency_s`` timeseries, which is what the
        dashboard's p99-over-time curves read.
        """
        if self._rec is not None and t_s is not None:
            handle = self._ts_lat.get(tenant)
            if handle is None:
                handle = self._rec.series(
                    "serve.latency_s",
                    "open-loop read latency over simulated time",
                    tenant=tenant or "all",
                )
                self._ts_lat[tenant] = handle
            handle.observe(t_s, latency_s)
        # tenant before latency: a concurrent fold sizes itself by _lat
        self._pending_tenants.append(tenant)
        self._lat.append(latency_s)

    def flush(self) -> None:
        """Fold the reads recorded since the last flush into the registry.

        One pass updates the per-tenant and deadline-miss counters; the
        histogram takes the latencies through ``observe_many``, split
        at the last multiple of ``gauge_every`` so the quantile gauges
        are set from the state they had after that read — the value
        per-read refreshes would have left them at.
        """
        with FOLD_LOCK:
            lo = self._folded
            hi = len(self._lat)
            if hi > lo:
                self._fold(lo, hi)

    def _fold(self, lo: int, hi: int) -> None:
        lat = self._lat[lo:hi]
        pending = self._pending_tenants
        tenants = pending[: hi - lo]
        del pending[: hi - lo]
        self._folded = hi
        counts: dict[str, int] = {}
        for tenant in tenants:
            counts[tenant] = counts.get(tenant, 0) + 1
        for tenant, k in counts.items():
            self._tenants[tenant] = self._tenants.get(tenant, 0) + k
            self._obs_reads.inc(float(k), tenant=tenant or "all")
        deadline = self.deadline_s
        if deadline is not None:
            misses = sum(1 for x in lat if x > deadline)
            if misses:
                self._misses += misses
                self._obs_miss.inc(misses)
        every = self.gauge_every
        split = hi // every * every - lo  # reads up to the last gauge refresh
        hist = self._obs_hist
        if split > 0:
            hist.observe_many(lat[:split])
            for q, gauge in self._obs_q.items():
                gauge.set(hist.quantile(q))
            lat = lat[split:]
        hist.observe_many(lat)

    def record_failure(self, n: int = 1) -> None:
        """Account reads that errored out after all retries."""
        self._failed += n

    def observe_queue_depth(self, depth: int, t_s: float | None = None) -> None:
        self._obs_depth.set(depth)
        if self._ts_depth is not None and t_s is not None:
            self._ts_depth.observe(t_s, depth)

    def summary(self, duration_s: float) -> SLOSummary:
        """The run's exact, bit-reproducible SLO verdict."""
        self.flush()
        served = len(self._lat)
        if served:
            ordered = sorted(self._lat)
            p50, p99, p999 = (float(percentile(ordered, q)) for q in (50, 99, 99.9))
            lat = np.array(self._lat)
            mean_s, max_s = float(lat.mean()), float(lat.max())
        else:
            p50 = p99 = p999 = mean_s = max_s = float("nan")
        good = served - self._misses
        return SLOSummary(
            served=served,
            failed=self._failed,
            deadline_misses=self._misses,
            duration_s=duration_s,
            p50_s=p50,
            p99_s=p99,
            p999_s=p999,
            mean_s=mean_s,
            max_s=max_s,
            goodput_rps=good / duration_s if duration_s > 0 else 0.0,
            per_tenant_served=tuple(sorted(self._tenants.items())),
        )


# ----------------------------------------------------------------------
# rebuild throttling / admission policies
# ----------------------------------------------------------------------


@runtime_checkable
class RebuildThrottle(Protocol):
    """What :meth:`RaidController.rebuild` consults before each stripe.

    ``delay_s(now, n_ios)`` returns the pre-submit pause in seconds for
    a stripe whose phase issues ``n_ios`` reads at simulated time
    ``now``.  Policies with an ``observe(latency_s)`` method are fed
    every completed user read by the serve tier (latency feedback).
    """

    def delay_s(self, now: float, n_ios: int = 1) -> float: ...


@dataclass
class FixedThrottle:
    """The md ``speed_limit`` analogue: a constant pre-stripe pause."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    def delay_s(self, now: float, n_ios: int = 1) -> float:
        return self.delay


class TokenBucketThrottle:
    """Token bucket on rebuild I/O: at most ``ios_per_s`` sustained.

    Each stripe's phase reads spend ``n_ios`` tokens; the bucket refills
    at ``ios_per_s`` up to one second's worth.  Debt is carried (tokens
    go negative), so the returned delay is exactly the time until the
    spend is covered — the classic rate-limit shape, deterministic
    given the call sequence.
    """

    def __init__(self, ios_per_s: float) -> None:
        if ios_per_s <= 0:
            raise ValueError(f"ios_per_s must be positive, got {ios_per_s}")
        self.ios_per_s = ios_per_s
        self._tokens = ios_per_s
        self._last = 0.0

    def delay_s(self, now: float, n_ios: int = 1) -> float:
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.ios_per_s, self._tokens + elapsed * self.ios_per_s)
        self._tokens -= n_ios
        if self._tokens >= 0.0:
            return 0.0
        return -self._tokens / self.ios_per_s


#: user-read latencies a :class:`LatencyTargetThrottle` takes its p99 over
LATENCY_WINDOW = 128
#: its first pause on overshoot, and the cap its doubling stops at
BASE_DELAY_S = 0.01
MAX_DELAY_S = 1.0


class LatencyTargetThrottle:
    """Latency-target feedback: back off the rebuild when p99 overshoots.

    Keeps the last :data:`LATENCY_WINDOW` user-read latencies (fed via
    :meth:`observe`); each stripe consults their p99 and adapts the
    pre-stripe delay multiplicatively — double on overshoot (from
    :data:`BASE_DELAY_S`, capped at :data:`MAX_DELAY_S`), halve on
    undershoot (floored back to zero) — the AIMD-flavoured controller
    md users approximate by hand with ``speed_limit_max``.
    Deterministic given the observe/delay call sequence.
    """

    def __init__(self, target_p99_s: float) -> None:
        if target_p99_s <= 0:
            raise ValueError(f"target must be positive, got {target_p99_s}")
        self.target_p99_s = target_p99_s
        self._recent: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._delay = 0.0

    def observe(self, latency_s: float) -> None:
        self._recent.append(latency_s)

    def delay_s(self, now: float, n_ios: int = 1) -> float:
        if self._recent:
            p99 = percentile(self._recent, 99)
            if p99 > self.target_p99_s:
                self._delay = min(MAX_DELAY_S, max(BASE_DELAY_S, self._delay * 2.0))
            else:
                half = self._delay / 2.0
                self._delay = half if half >= BASE_DELAY_S else 0.0
        return self._delay


def make_throttle(spec: str) -> RebuildThrottle | None:
    """Build a fresh throttle from its CLI spec string.

    ``none`` — no throttling (returns ``None``, the rebuild default);
    ``fixed:SECONDS`` — :class:`FixedThrottle`;
    ``token:IOS_PER_S`` — :class:`TokenBucketThrottle`;
    ``latency:TARGET_P99_MS`` — :class:`LatencyTargetThrottle`.

    Policies are stateful, so call this once per run — sharing one
    instance across arrangements would leak state between them.
    """
    if spec == "none":
        return None
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(
            f"malformed throttle spec {spec!r} (expected KIND:VALUE or 'none')"
        )
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"throttle value {arg!r} is not a number") from None
    if kind == "fixed":
        return FixedThrottle(value)
    if kind == "token":
        return TokenBucketThrottle(value)
    if kind == "latency":
        return LatencyTargetThrottle(value / 1e3)
    raise ValueError(
        f"unknown throttle kind {kind!r} (expected fixed, token or latency)"
    )
