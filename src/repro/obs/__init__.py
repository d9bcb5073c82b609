"""Unified observability: metrics registry, span tracer, exporters.

The paper's argument is about *where* reconstruction I/O lands; this
package makes that visible at any scale without perturbing the
simulation:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  with labels, a process-wide default registry, and a zero-overhead
  null sink selected by ``REPRO_OBS=0``;
* :mod:`repro.obs.tracing` — span tracer recording ``(name, ts, dur,
  args)`` on per-disk tracks;
* :mod:`repro.obs.export` — the engine's io-span rows, chrome://tracing
  ("Trace Event Format") JSON, the incremental streaming JSONL sink,
  and metrics snapshot round-trip;
* :mod:`repro.obs.http` — live Prometheus text exposition
  (``--metrics-port``) over a stdlib HTTP server;
* :mod:`repro.obs.summary` — the ``repro obs summary`` pretty-printer;
* :mod:`repro.obs.baseline` — rolling quiet-period baselines backing
  the :mod:`repro.nemesis` anomaly detector.

The global hooks — :func:`default_registry` for metrics and
:func:`default_tracer` for spans — are what instrumented components
consult at construction time, so ``repro simulate rebuild --trace-out
trace.json`` needs no plumbing through intermediate layers.  See
``docs/observability.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .tracing import Tracer

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "baseline": ("EWMABaseline", "RollingBaseline", "SeasonalBaseline", "make_baseline"),
        "export": (
            "IoSpan",
            "JsonlTraceSink",
            "StreamedTrace",
            "chrome_trace",
            "load_streaming_trace",
            "write_chrome_trace",
            "write_metrics",
        ),
        "http": ("MetricsServer", "prometheus_text"),
        "metrics": (
            "DEFAULT_BUCKETS",
            "NULL_INSTRUMENT",
            "NULL_REGISTRY",
            "Counter",
            "Distribution",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullRegistry",
            "bucket_quantile",
            "default_registry",
            "obs_enabled",
            "percentile",
            "scoped_registry",
            "set_obs_enabled",
        ),
        "report": (),
        "summary": ("metrics_summary", "summarize_files", "trace_summary"),
        "timeseries": (
            "DEFAULT_HORIZON",
            "DEFAULT_WINDOW_S",
            "TimelineRecorder",
            "TimeSeries",
            "default_recorder",
            "scoped_recorder",
            "set_default_recorder",
            "window_mean",
        ),
        "tracing": (
            "DEFAULT_BUFFER_WATERMARK",
            "SAMPLED_CATS",
            "TraceEvent",
            "TraceGroup",
            "Tracer",
            "resolve_sample_rate",
        ),
    },
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "Distribution",
    "bucket_quantile",
    "percentile",
    "default_registry",
    "scoped_registry",
    "obs_enabled",
    "set_obs_enabled",
    # tracing
    "Tracer",
    "TraceGroup",
    "TraceEvent",
    "SAMPLED_CATS",
    "DEFAULT_BUFFER_WATERMARK",
    "resolve_sample_rate",
    "default_tracer",
    "set_default_tracer",
    # export
    "IoSpan",
    "chrome_trace",
    "write_chrome_trace",
    "JsonlTraceSink",
    "StreamedTrace",
    "load_streaming_trace",
    "write_metrics",
    # http
    "MetricsServer",
    "prometheus_text",
    # summary
    "metrics_summary",
    "trace_summary",
    "summarize_files",
    # baselines
    "RollingBaseline",
    "EWMABaseline",
    "SeasonalBaseline",
    "make_baseline",
    # timeseries (the simulated-time flight recorder)
    "TimelineRecorder",
    "TimeSeries",
    "DEFAULT_WINDOW_S",
    "DEFAULT_HORIZON",
    "default_recorder",
    "set_default_recorder",
    "scoped_recorder",
    "window_mean",
]

_default_tracer: Tracer | None = None


def default_tracer() -> Tracer | None:
    """The process default tracer, or ``None`` when tracing is off.

    Simulations attach a track group to this tracer at construction
    when no explicit tracer is passed; the CLI's ``--trace-out`` sets
    it for the duration of one command.
    """
    return _default_tracer


def set_default_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with ``None``) the default tracer; returns the old."""
    global _default_tracer
    old = _default_tracer
    _default_tracer = tracer
    return old
