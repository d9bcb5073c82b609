"""Lightweight metrics: labelled counters, gauges and histograms.

The simulator's hot paths (event dispatch, batch coalescing, retry
bookkeeping) want to *count things* without paying for a metrics
framework.  This module provides the three classic instrument kinds
with an explicit cost model:

* instruments are created once (registry lookups are get-or-create and
  idempotent) and **bound children** (:meth:`Counter.labels`) are
  cached, so a hot loop holds a direct reference whose ``inc`` is one
  dict store;
* with observability disabled (``REPRO_OBS=0`` or
  :func:`set_obs_enabled`), :func:`default_registry` returns the
  process-wide :data:`NULL_REGISTRY` whose instruments are a single
  shared no-op object — components constructed while disabled carry
  null instruments forever, which is the "compiled to the null sink"
  contract ``benchmarks/perfbench.py --obs-overhead`` enforces;
* a registry :meth:`~MetricsRegistry.snapshot` is plain JSON data, and
  :meth:`~MetricsRegistry.merge` folds another snapshot in — this is
  how campaign workers ship their metrics back to the parent without
  touching any seeded state (see ``repro.raidsim.campaign``);
* producers that buffer samples in columns (the flight recorder, the
  serve tier's SLO accounting) register a flush hook
  (:meth:`~MetricsRegistry.add_flush_hook`): every snapshot and every
  instrument lookup by name folds the pending columns first, so no
  reader outside the hot path can see the deferral;
* a component that binds the same instruments at every construction
  asks :meth:`~MetricsRegistry.bound` for them: the binding runs once
  per registry and argument set, and later constructions reuse its
  result.

Nothing here imports the rest of ``repro``; the observability layer
sits below every other subsystem.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from bisect import bisect_left
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "obs_enabled",
    "set_obs_enabled",
    "default_registry",
    "scoped_registry",
    "DEFAULT_BUCKETS",
    "FOLD_LOCK",
    "Distribution",
    "bucket_quantile",
    "percentile",
]

#: the latency layout (seconds) shared by every histogram, recorder
#: window and live gauge: 0.1 ms to ~105 s in sqrt(2) steps, so a
#: bucket quantile is within a factor sqrt(2) above the exact one.
#: Callers pass their own bounds only for non-latency quantities
#: (ratios, byte counts).
DEFAULT_BUCKETS = tuple(1e-4 * 2 ** (k / 2) for k in range(41))

#: serialises column folds: the simulation thread folds at its flush
#: points while a ``/metrics`` scrape may fold the same columns from
#: the server thread (appends never take it — they only touch the tail)
FOLD_LOCK = threading.RLock()


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared naming/labelling machinery of the three instrument kinds."""

    kind = "abstract"
    __slots__ = ("name", "help", "_values", "_children")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict = {}
        self._children: dict = {}

    def labels(self, **labels):
        """A bound child for one label set — cache it on hot paths."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child(key)
        return child

    def _make_child(self, key):  # pragma: no cover - abstract
        raise NotImplementedError

    def label_sets(self) -> list[dict]:
        return [dict(key) for key in self._values]


class _BoundCounter:
    __slots__ = ("_values", "_key")

    def __init__(self, values: dict, key: tuple) -> None:
        self._values = values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        values = self._values
        key = self._key
        values[key] = values.get(key, 0.0) + amount


class Counter(_Instrument):
    """A monotonically increasing count, optionally per label set."""

    kind = "counter"
    __slots__ = ()

    def _make_child(self, key) -> _BoundCounter:
        return _BoundCounter(self._values, key)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())


class _BoundGauge:
    __slots__ = ("_values", "_key")

    def __init__(self, values: dict, key: tuple) -> None:
        self._values = values
        self._key = key

    def set(self, value: float) -> None:
        self._values[self._key] = value


class Gauge(_Instrument):
    """A point-in-time value (queue depth, worker count, high-water)."""

    kind = "gauge"
    __slots__ = ()

    def _make_child(self, key) -> _BoundGauge:
        return _BoundGauge(self._values, key)

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = value

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)


class Distribution:
    """Bucket counts plus running aggregates over fixed upper bounds.

    The one bucketed structure of :mod:`repro.obs`: a histogram's
    per-label state, a flight-recorder window and the serve tier's live
    quantile gauges are all a ``Distribution``.  ``counts`` has one slot
    per bound plus a trailing +inf bucket; a value lands in the first
    bucket whose bound is ``>=`` it.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Batch observation, state-identical to a loop of :meth:`observe`.

        ``values`` is any sequence (or numpy array) of floats.  Bucket
        assignment vectorises on large batches, but the running ``sum``
        still accumulates value by value in input order, so batch and
        per-value observation leave bit-identical state — the contract
        the engine's once-per-run completion fold relies on.
        """
        vlist = values.tolist() if hasattr(values, "tolist") else list(values)
        n = len(vlist)
        if not n:
            return
        bounds = self.bounds
        counts = self.counts
        if n >= 64:
            import numpy as np

            arr = values if hasattr(values, "dtype") else np.asarray(vlist)
            idx = np.searchsorted(np.asarray(bounds), arr, side="left")
            for i, c in enumerate(np.bincount(idx, minlength=len(counts)).tolist()):
                if c:
                    counts[i] += c
        else:
            for v in vlist:
                counts[bisect_left(bounds, v)] += 1
        total = self.sum
        for v in vlist:
            total += v
        self.sum = total
        self.count += n
        lo = min(vlist)
        hi = max(vlist)
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    def merge(self, data: dict) -> None:
        """Fold in a :meth:`to_dict` of a distribution over the same bounds."""
        for i, c in enumerate(data["counts"]):
            self.counts[i] += c
        self.sum += data["sum"]
        self.count += data["count"]
        if data["min"] is not None and data["min"] < self.min:
            self.min = data["min"]
        if data["max"] is not None and data["max"] > self.max:
            self.max = data["max"]

    def to_dict(self) -> dict:
        """Plain data; ``min``/``max`` are ``None`` while empty."""
        empty = not self.count
        return {
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
        }

    def quantile(self, q: float) -> float:
        """:func:`bucket_quantile` of this distribution."""
        return bucket_quantile(self.to_dict(), q, self.bounds)


def bucket_quantile(dist: dict, q: float, bounds) -> float:
    """Upper bound of the bucket covering rank ``q * count``, clamped to the max.

    ``dist`` is a :meth:`Distribution.to_dict` (or a recorder window)
    over ``bounds``; an empty one gives NaN.  The result is at least the
    exact nearest-rank quantile and, for values inside the bounds, at
    most one bucket ratio above it — ``sqrt(2)`` on
    :data:`DEFAULT_BUCKETS`.
    """
    total = dist["count"]
    if not total:
        return float("nan")
    rank = q * total
    cumulative = 0
    for bound, count in zip(bounds, dist["counts"]):
        cumulative += count
        if cumulative >= rank:
            return min(bound, dist["max"])
    return dist["max"]


def percentile(values, q: float) -> float:
    """Exact percentile, equal to ``np.percentile(values, q)`` bit for bit.

    Linear interpolation from the nearer neighbour, as numpy's lerp
    does, without numpy's per-call overhead, which outweighs a short
    probe's reads.  ``q`` is in percent; ``values`` must be non-empty.
    """
    ordered = sorted(values)
    virtual = (len(ordered) - 1) * (q / 100)
    lo = math.floor(virtual)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    gamma = virtual - lo
    a, b = ordered[lo], ordered[lo + 1]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


class Histogram(_Instrument):
    """A distribution over fixed buckets (upper bounds, +inf implicit).

    Each label set's state is a :class:`Distribution`, which is also
    what :meth:`labels` returns.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram buckets must be strictly increasing: {buckets}")
        self.buckets = bounds

    def _make_child(self, key) -> Distribution:
        dist = self._values.get(key)
        if dist is None:
            dist = self._values[key] = Distribution(self.buckets)
        return dist

    def state(self, **labels) -> Distribution | None:
        return self._values.get(_label_key(labels))


class _NullInstrument:
    """One shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()

    def labels(self, **labels) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def observe_many(self, values, **labels) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def value(self, **labels) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Process-wide (or scoped) home of named instruments.

    Lookups are get-or-create: asking twice for the same name returns
    the same object, and asking with a conflicting kind raises — names
    are a global contract, not a per-module convenience.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        #: weak references to the bound ``flush`` methods of column
        #: producers, in registration order
        self._flush_hooks: list[weakref.WeakMethod] = []
        self._flushing = False
        #: ``(bind, *args) -> bind(self, *args)``, see :meth:`bound`
        self._bound: dict[tuple, object] = {}

    def add_flush_hook(self, flush) -> None:
        """Call ``flush()`` before every read of this registry.

        ``flush`` is a bound method of an object that buffers samples
        and folds them into this registry's instruments (the flight
        recorder, an SLO accountant).  The registry holds it weakly, so
        registering never keeps a finished run's state alive.
        """
        with FOLD_LOCK:  # a concurrent flush rebuilds the list
            self._flush_hooks.append(weakref.WeakMethod(flush))

    def flush(self) -> None:
        """Fold every registered producer's pending columns.

        Runs before :meth:`snapshot` and before each instrument lookup
        by name, so a reader (``/metrics``, an end-of-run export, a test
        reading ``registry.histogram(name).state()``) sees exactly the
        state per-sample observation would have left.  Re-entrant calls
        — a fold that looks up a gauge — return at once.
        """
        if not self._flush_hooks:
            return
        with FOLD_LOCK:
            if self._flushing:
                return
            self._flushing = True
            try:
                live = []
                for ref in self._flush_hooks:
                    fn = ref()
                    if fn is not None:
                        fn()
                        live.append(ref)
                self._flush_hooks = live
            finally:
                self._flushing = False

    def _get(self, cls, name: str, help: str, **kwargs):
        self.flush()
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as a {inst.kind}"
                )
            return inst
        inst = self._instruments[name] = cls(name, help, **kwargs)
        return inst

    def bound(self, bind, *args):
        """``bind(self, *args)``, computed once per ``(bind, *args)``.

        ``bind`` looks up instruments and binds their children, and
        returns them (a tuple, typically).  The first call runs it;
        every later call with the same function and arguments returns
        that same result, with no instrument lookup, no ``labels()``
        call and no flush.  Instruments are never replaced once
        registered, so the bound children stay live.  A fresh or scoped
        registry binds anew.
        """
        key = (bind, *args)
        found = self._bound.get(key)
        if found is None:
            found = self._bound[key] = bind(self, *args)
        return found

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data (JSON-able) view of every instrument's state.

        Pending columns are folded first (see :meth:`flush`).
        """
        self.flush()
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                out["counters"][name] = {
                    "help": inst.help,
                    "values": [
                        {"labels": dict(k), "value": v}
                        for k, v in sorted(inst._values.items())
                    ],
                }
            elif isinstance(inst, Gauge):
                out["gauges"][name] = {
                    "help": inst.help,
                    "values": [
                        {"labels": dict(k), "value": v}
                        for k, v in sorted(inst._values.items())
                    ],
                }
            elif isinstance(inst, Histogram):
                out["histograms"][name] = {
                    "help": inst.help,
                    "buckets": list(inst.buckets),
                    "values": [
                        {"labels": dict(k), **d.to_dict()}
                        for k, d in sorted(inst._values.items())
                    ],
                }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram states add; gauges take the snapshot's
        value (last write wins).  Histogram bucket layouts must match —
        a mismatch means two code versions disagree about a metric and
        deserves a loud error, not silent skew.
        """
        if not snapshot:
            return
        for name, data in snapshot.get("counters", {}).items():
            counter = self.counter(name, data.get("help", ""))
            for entry in data["values"]:
                counter.inc(entry["value"], **entry["labels"])
        for name, data in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name, data.get("help", ""))
            for entry in data["values"]:
                gauge.set(entry["value"], **entry["labels"])
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(
                name, data.get("help", ""), buckets=tuple(data["buckets"])
            )
            if list(hist.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: bucket layout mismatch on merge"
                )
            for entry in data["values"]:
                hist._make_child(_label_key(entry["labels"])).merge(entry)


class NullRegistry:
    """The zero-overhead sink: every instrument is :data:`NULL_INSTRUMENT`."""

    enabled = False

    def bound(self, bind, *args):
        """``bind(self, *args)``: null instruments, nothing to memoise."""
        return bind(self, *args)

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def add_flush_hook(self, flush) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()

_enabled = os.environ.get("REPRO_OBS", "1") != "0"
_default = MetricsRegistry()


def obs_enabled() -> bool:
    """Whether observability is globally on (``REPRO_OBS`` env toggle)."""
    return _enabled


def set_obs_enabled(enabled: bool) -> bool:
    """Flip the global observability switch; returns the old value.

    Components read the switch **at construction time** (they capture
    instruments, or skip creating hooks entirely), so flipping it
    affects objects built afterwards, not live ones.
    """
    global _enabled
    old = _enabled
    _enabled = bool(enabled)
    return old


def default_registry():
    """The process default registry — :data:`NULL_REGISTRY` when disabled."""
    return _default if _enabled else NULL_REGISTRY


@contextmanager
def scoped_registry():
    """Swap in a fresh default registry for the duration of a block.

    Campaign workers run each sweep point under a scope so the point's
    metrics can be snapshotted in isolation and merged by the parent in
    deterministic seed order.  With observability disabled the scope
    yields the null registry and records nothing.
    """
    global _default
    if not _enabled:
        yield NULL_REGISTRY
        return
    saved = _default
    _default = MetricsRegistry()
    try:
        yield _default
    finally:
        _default = saved
