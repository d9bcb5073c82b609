"""Simulated-time flight recorder: windowed metric timeseries.

Cumulative counters answer "how much, in total"; the paper's claims
are *trajectories* — user-read latency and rebuild progress **during**
reconstruction.  :class:`TimelineRecorder` is the first-class data
structure for those curves: named series accept ``observe(t, value)``
feeds (``t`` is the **simulated** clock, never wall time) and fold
them into fixed-width windows, each a
:class:`~repro.obs.metrics.Distribution` (``count/sum/min/max`` plus
bucket counts over :data:`~repro.obs.metrics.DEFAULT_BUCKETS`), from
which mean and :func:`~repro.obs.metrics.bucket_quantile` derive.
Closed windows live in a ring buffer bounded by ``horizon`` windows
per series, so a week-long campaign records in O(horizon), not O(events).

Samples are columnar: ``observe`` appends ``(t, value)`` to the series'
pending column, and the column is folded into its windows at the flush
points the code already has — :meth:`TimelineRecorder.advance_to`
(once per engine ``run()``), any read (:meth:`TimeSeries.windows`,
:attr:`TimeSeries.closed`, :meth:`TimelineRecorder.snapshot`, a merge),
a snapshot of the registry the window gauges publish to, and whenever
:data:`COLUMN_BOUND` samples are pending.  Folding replays the samples
in arrival order through the same window rules, one window-run at a
time, so the folded state is bit-identical to per-sample observation.

The recorder follows the null-sink contract of the rest of
:mod:`repro.obs`: components resolve :func:`default_recorder` at
construction and keep a per-series handle (one ``is not None`` test on
the hot path).  With ``REPRO_OBS=0`` :func:`default_recorder` returns
``None`` even when a recorder is installed, so recording is skipped
entirely and the engine stays inside the ≤2% overhead gate.

Merging is defined on plain-data snapshots — windows with the same
index add counts and sums and combine min/max — and is used by
``compare_sweep`` to fold worker recorders into the parent in
submission order, which keeps ``jobs=1`` and ``jobs=N`` sweeps
bit-identical.  A snapshot is plain data: ``repro serve --json``
embeds it, and ``repro obs report`` renders it.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import (
    DEFAULT_BUCKETS,
    FOLD_LOCK,
    Distribution,
    MetricsRegistry,
    bucket_quantile,
    default_registry,
    obs_enabled,
)

__all__ = [
    "COLUMN_BOUND",
    "DEFAULT_WINDOW_S",
    "DEFAULT_HORIZON",
    "TIMESERIES_SCHEMA",
    "TimeSeries",
    "TimelineRecorder",
    "window_mean",
    "default_recorder",
    "set_default_recorder",
    "scoped_recorder",
]

#: schema version stamped into snapshots
TIMESERIES_SCHEMA = 1

#: default simulated-time window width (seconds)
DEFAULT_WINDOW_S = 0.1

#: default ring-buffer bound: closed windows kept per series
DEFAULT_HORIZON = 4096

#: pending samples one series buffers before it folds on its own, so a
#: single long ``run()`` keeps the recorder's memory O(horizon)
COLUMN_BOUND = 4096

#: window-close gauges published per closed window (most recent wins)
_WINDOW_AGGS = ("count", "mean", "min", "max", "p50", "p99")


def _series_key(name: str, labels: dict) -> str:
    """Canonical dict key for one (name, labels) series."""
    if not labels:
        return name
    return name + "|" + ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def window_mean(win: dict) -> float:
    """Mean of one window dict (NaN when the window is empty)."""
    return win["sum"] / win["count"] if win["count"] else float("nan")


class TimeSeries:
    """One named, labelled series inside a :class:`TimelineRecorder`.

    Handles are cheap to hold: components capture one at construction
    and call :meth:`observe` per sample, which only appends to the
    pending column; the column folds at the recorder's flush points
    (see the module docstring).  Samples earlier than the open window
    (possible when completion order lags the clock) clamp into the open
    window rather than reopening a closed one — window assignment is
    deterministic either way because completion order itself is
    deterministic.
    """

    __slots__ = ("name", "help", "labels", "_rec", "_open", "_closed", "_ts", "_vs")

    def __init__(self, recorder: "TimelineRecorder", name: str, help: str, labels: dict) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._rec = recorder
        #: the open window: (index, aggregates), or None
        self._open: tuple[int, Distribution] | None = None
        self._closed: list[dict] = []
        #: the pending column: sample times and values, not yet folded
        self._ts: list[float] = []
        self._vs: list[float] = []

    def observe(self, t: float, value: float) -> None:
        """Buffer one sample at simulated time ``t`` for its window."""
        self._ts.append(t)
        vs = self._vs
        vs.append(value)
        if len(vs) >= COLUMN_BOUND:
            self._fold()

    def observe_many(self, ts, values) -> None:
        """Buffer samples ``(ts[i], values[i])`` in order — a batch :meth:`observe`."""
        if len(self._vs) + len(values) < COLUMN_BOUND:
            self._ts.extend(ts)
            self._vs.extend(values)
            return
        with FOLD_LOCK:
            self._fold()
            self._fold_samples(ts, values)

    def _fold(self) -> None:
        """Fold the pending column into the windows, oldest sample first."""
        with FOLD_LOCK:
            vs = self._vs
            n = len(vs)
            if not n:
                return
            ts = self._ts
            # take a prefix rather than swapping lists: a scrape thread
            # may fold while the simulation thread appends to the tail
            tl, vl = ts[:n], vs[:n]
            del ts[:n]
            del vs[:n]
            self._fold_samples(tl, vl)

    def _fold_samples(self, ts, values) -> None:
        """Per-sample window rules, one :meth:`Distribution.observe_many` per run.

        Only the last window closed here is published: the gauges are
        last-write-wins, so the earlier publications could never be
        read.
        """
        inf = float("inf")
        window_s = self._rec.window_s
        win = self._open
        run: list[float] = []
        last = None
        for t, value in zip(ts, values):
            value = float(value)
            if value != value or value == inf or value == -inf:
                continue  # "no measurement" — same abstention as the baselines
            w = int(t // window_s)
            if win is None or w > win[0]:
                if run:
                    win[1].observe_many(run)
                    run = []
                if win is not None:
                    last = {"w": win[0], **win[1].to_dict()}
                    self._insert_closed(last)
                win = self._open = (w, Distribution())
            run.append(value)
        if run:
            win[1].observe_many(run)
        if last is not None:
            self._rec._publish(self, last)

    @property
    def closed(self) -> list[dict]:
        """Closed windows sorted by index, oldest first (folds pending samples)."""
        self._fold()
        return self._closed

    def advance_to(self, t: float) -> None:
        """Close the open window if ``t`` has moved past its right edge."""
        self._fold()
        win = self._open
        if win is not None and int(t // self._rec.window_s) > win[0]:
            self._close(win)
            self._open = None

    def _close(self, win: tuple[int, Distribution]) -> None:
        record = {"w": win[0], **win[1].to_dict()}
        self._insert_closed(record)
        self._rec._publish(self, record)

    def _insert_closed(self, record: dict) -> None:
        """Keep ``closed`` sorted by window index, folding duplicates.

        The common close appends; the sorted-insert path exists because
        a merged snapshot can carry windows past the one still open
        here, so a later close (or fold) may arrive out of order.
        """
        closed = self._closed
        if not closed or closed[-1]["w"] < record["w"]:
            closed.append(record)
        else:
            lo, hi = 0, len(closed)
            while lo < hi:
                mid = (lo + hi) // 2
                if closed[mid]["w"] < record["w"]:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < len(closed) and closed[lo]["w"] == record["w"]:
                dist = Distribution()
                dist.merge(closed[lo])
                dist.merge(record)
                closed[lo] = {"w": record["w"], **dist.to_dict()}
                return
            closed.insert(lo, record)
        if len(closed) > self._rec.horizon:
            del closed[0 : len(closed) - self._rec.horizon]

    def windows(self) -> list[dict]:
        """Every non-empty window sorted by index, oldest first.

        The open window slots into position — after a merge it can
        trail closed windows folded in from another recorder.
        """
        self._fold()
        out = [dict(w, counts=list(w["counts"])) for w in self._closed]
        win = self._open
        if win is not None:
            record = {"w": win[0], **win[1].to_dict()}
            idx = len(out)
            while idx > 0 and out[idx - 1]["w"] > record["w"]:
                idx -= 1
            out.insert(idx, record)
        return out

    def fold(self, win: dict) -> None:
        """Merge one window dict into this series (same window width)."""
        self._fold()
        open_win = self._open
        if open_win is not None and open_win[0] == win["w"]:
            open_win[1].merge(win)
            return
        self._insert_closed(dict(win, counts=list(win["counts"])))


class TimelineRecorder:
    """Windowed simulated-time timeseries over many named series.

    Parameters
    ----------
    window_s:
        Fixed window width in **simulated** seconds; window ``w``
        covers ``[w * window_s, (w + 1) * window_s)``.
    horizon:
        Ring-buffer bound — closed windows kept per series (oldest
        evicted first).
    registry:
        Metrics registry that receives ``{name}_window`` gauges when a
        window closes (the most recent closed window, per aggregate),
        so the Prometheus endpoint exposes live trajectory points.
        Defaults to :func:`repro.obs.metrics.default_registry`;
        pass ``False`` to disable publication.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        horizon: int = DEFAULT_HORIZON,
        registry: MetricsRegistry | None | bool = None,
    ) -> None:
        if window_s <= 0.0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.window_s = float(window_s)
        self.horizon = int(horizon)
        if registry is False:
            self._registry = None
        else:
            self._registry = registry if registry is not None else default_registry()
        self._series: dict[str, TimeSeries] = {}
        self._gauges: dict[str, object] = {}
        self._samplers: list[tuple[TimeSeries, object]] = []
        if self._registry is not None:
            # a registry read folds pending samples first, so the
            # ``*_window`` gauges never show the deferral
            self._registry.add_flush_hook(self.flush)

    # -- series management -------------------------------------------------

    def series(self, name: str, help: str = "", **labels) -> TimeSeries:
        """Get or create the series for ``(name, labels)``."""
        key = _series_key(name, labels)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = TimeSeries(self, name, help, dict(labels))
        return s

    def sample(self, name: str, fn, help: str = "", **labels) -> TimeSeries:
        """Register ``fn()`` to be sampled at every :meth:`advance_to`.

        The callable runs on the simulated clock (once per advance, at
        the advance time) — the pull-style complement of the push-style
        :meth:`TimeSeries.observe` feed.
        """
        s = self.series(name, help, **labels)
        self._samplers.append((s, fn))
        return s

    def flush(self) -> None:
        """Fold every series' pending column into its windows."""
        # a copy: a scrape thread may flush while the simulation thread
        # creates a series
        for s in list(self._series.values()):
            s._fold()

    def advance_to(self, t: float) -> None:
        """Move the recorder clock: run samplers, close elapsed windows."""
        for s, fn in self._samplers:
            value = fn()
            if value is not None:
                s.observe(t, value)
        for s in self._series.values():
            s.advance_to(t)

    # -- window-close gauge publication ------------------------------------

    def _publish(self, series: TimeSeries, win: dict) -> None:
        reg = self._registry
        if reg is None or not reg.enabled:
            return
        gauge = self._gauges.get(series.name)
        if gauge is None:
            gauge = self._gauges[series.name] = reg.gauge(
                series.name + "_window",
                (series.help or series.name) + " (most recent closed window)",
            )
        values = {
            "count": float(win["count"]),
            "mean": window_mean(win),
            "min": win["min"],
            "max": win["max"],
            "p50": bucket_quantile(win, 0.50, DEFAULT_BUCKETS),
            "p99": bucket_quantile(win, 0.99, DEFAULT_BUCKETS),
        }
        for agg in _WINDOW_AGGS:
            gauge.set(values[agg], agg=agg, **series.labels)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data state: JSON-able, mergeable, export-ready.

        Open windows are included (they carry real samples); folding a
        snapshot into another recorder goes through :meth:`merge`.
        """
        series = {}
        for key in sorted(self._series):
            s = self._series[key]
            wins = s.windows()
            if wins:
                series[key] = {
                    "name": s.name,
                    "help": s.help,
                    "labels": dict(s.labels),
                    "windows": wins,
                }
        return {
            "schema": TIMESERIES_SCHEMA,
            "window_s": self.window_s,
            "horizon": self.horizon,
            "buckets": list(DEFAULT_BUCKETS),
            "series": series,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot from another recorder into this one.

        Window width and buckets must match — window indices are only
        comparable at the same width.  Deterministic: iterates series
        in sorted key order, windows in recorded order, so merging the
        same snapshots in the same order always gives the same state
        (the ``jobs=1`` vs ``jobs=N`` bit-identity hinge).
        """
        if not snapshot or not snapshot.get("series"):
            return
        if snapshot["window_s"] != self.window_s:
            raise ValueError(
                f"window_s mismatch: recorder {self.window_s}, "
                f"snapshot {snapshot['window_s']}"
            )
        if tuple(snapshot["buckets"]) != DEFAULT_BUCKETS:
            raise ValueError("bucket-bound mismatch between recorder and snapshot")
        for key in sorted(snapshot["series"]):
            entry = snapshot["series"][key]
            s = self.series(entry["name"], entry.get("help", ""), **entry["labels"])
            for win in entry["windows"]:
                s.fold(win)


# -- process default (mirrors default_tracer) ------------------------------

_default_recorder: TimelineRecorder | None = None


def default_recorder() -> TimelineRecorder | None:
    """The process default recorder, or ``None`` when recording is off.

    Gated on :func:`repro.obs.metrics.obs_enabled`: with ``REPRO_OBS=0``
    this returns ``None`` *even when a recorder is installed*, so
    instrumented components resolve to no-recording at construction
    and the engine's null-sink overhead contract holds.
    """
    if not obs_enabled():
        return None
    return _default_recorder


def set_default_recorder(
    recorder: TimelineRecorder | None,
) -> TimelineRecorder | None:
    """Install (or clear, with ``None``) the default recorder; returns the old."""
    global _default_recorder
    old = _default_recorder
    _default_recorder = recorder
    return old


@contextmanager
def scoped_recorder(
    recorder: TimelineRecorder | None = None,
    *,
    enabled: bool = True,
    window_s: float = DEFAULT_WINDOW_S,
    horizon: int = DEFAULT_HORIZON,
):
    """Install a recorder for the duration of a ``with`` block.

    Creates a fresh :class:`TimelineRecorder` when none is given (and
    observability is on); ``enabled=False`` installs ``None`` so a
    block runs recorder-free regardless of the ambient default —
    sweep workers use this to match the parent's recording decision
    on both the serial and the process-pool path.
    """
    if recorder is None and enabled and obs_enabled():
        recorder = TimelineRecorder(window_s=window_s, horizon=horizon)
    if not enabled:
        recorder = None
    old = set_default_recorder(recorder)
    try:
        yield recorder
    finally:
        set_default_recorder(old)

