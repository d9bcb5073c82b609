"""Element-granular disk array on top of the event engine.

:class:`ElementArray` is the substrate the RAID layer drives: an array
of identical disks addressed in fixed-size *elements* (the paper uses
4 MB).  It provides coalescing batch submission and completion
callbacks per request and per batch.

Batch submission contract
-------------------------
Both :meth:`ElementArray.submit_elements` and the vectorized
:meth:`ElementArray.submit_batch` **coalesce**: repeated ``(disk,
slot)`` operations deduplicate and contiguous slots on one disk merge
into a single larger request, exactly like the I/O merging real block
layers perform.  Consequences callers must honour:

* the returned :class:`BatchSubmission` (a list of the actual
  :class:`~repro.disksim.request.IORequest` objects) is the
  *authoritative* batch — its length may be smaller than the number of
  submitted operations;
* the per-request ``callback`` fires once per **coalesced request**,
  never once per operation — counting callback firings against the
  operation count miscounts;
* ``on_complete`` fires exactly once when the whole batch settled
  (immediately for an empty batch) and is the right completion hook;
* :meth:`BatchSubmission.op_requests` maps every submitted operation
  (in input order) to the request that covers it, for callers that do
  need per-operation attribution.  The mapping is derived when asked
  for, not while the batch is coalesced.

Coalescing is one sort-and-merge loop over the ops.  The runs then go
through :meth:`ElementArray.submit_runs`, the one submission tail: it
checks the whole batch's disks, logs it, builds the requests and hands
them to the engine in one
:meth:`~repro.disksim.events.Simulation.submit_many` call.  The RAID controller's compiled rebuild phases call it directly
with runs coalesced once per failure class.

A single-op :meth:`ElementArray.submit_elements` call — every user read
of one element, the bulk of an open-loop or nemesis run — has nothing
to coalesce: it builds its one request directly and hands it to
:meth:`~repro.disksim.events.Simulation.submit`.  The request, its
``req_id``, the op mapping, the callbacks and the instruments are what
the coalescer would have produced.

Observability
-------------
The ``array.*`` instruments (``array.batch_path``, ``array.batch_ops``,
``array.coalesce_ratio``) are not updated per submission.  Each
submission appends one ``(ops, requests)`` entry to its array's log,
and the log is folded into the instruments at the exit of every
:meth:`~repro.disksim.events.Simulation.run`, next to the engine's own
completion fold, in submission order — the state per-submission updates
would have left.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from ..obs import default_registry, obs_enabled
from .disk import DiskParameters
from .events import Simulation
from .request import IOKind, IORequest
from .scheduler import ElevatorScheduler, Scheduler

__all__ = [
    "ElementArray",
    "BatchSubmission",
    "DEFAULT_ELEMENT_SIZE",
]

_MB = 1024 * 1024

#: 4 MB, "a typical choice in storage systems" (§VII citing Atropos).
DEFAULT_ELEMENT_SIZE = 4 * _MB


class BatchSubmission(list):
    """The coalesced requests of one batch submission.

    A plain ``list`` of :class:`~repro.disksim.request.IORequest` (the
    authoritative batch — see the module docstring for the coalescing
    contract) plus the operation→request mapping.
    """

    __slots__ = ("_ops",)

    def __init__(self, requests=(), ops=None) -> None:
        super().__init__(requests)
        #: ``(disks, slots, element_size)`` of the submitted ops, in
        #: input order; ``None`` when the submission had no op list
        self._ops = ops

    def op_requests(self) -> list[IORequest]:
        """The request covering each submitted op, in input order.

        Repeated or contiguous ops map to the same request object, so
        ``len(op_requests()) >= len(self)`` in general — this is the
        mapping callers should use to attribute a completion back to
        the operations that asked for it.

        The requests ascend by ``(disk, offset)`` and cover disjoint
        ranges, so an op's request is the last one starting at or
        before the op's first byte.
        """
        if self._ops is None:
            raise ValueError("this submission did not record an op mapping")
        disks, slots, element_size = self._ops
        starts = [(r.disk, r.offset) for r in self]
        return [
            self[bisect_right(starts, (d, s * element_size)) - 1]
            for d, s in zip(disks, slots)
        ]


class _BatchGroup:
    """Per-request callback that fires ``on_complete`` once at the end.

    One slotted object per batch instead of a closure cell — this
    callback runs once per request on the engine's hot path.
    """

    __slots__ = ("remaining", "user_cb", "on_complete")

    def __init__(self, remaining: int, user_cb, on_complete) -> None:
        self.remaining = remaining
        self.user_cb = user_cb
        self.on_complete = on_complete

    def __call__(self, req: IORequest) -> None:
        if self.user_cb is not None:
            self.user_cb(req)
        self.remaining -= 1
        if self.remaining == 0:
            self.on_complete()


class _ArrayObs:
    """Batch-path instruments and their submission log.

    ``None`` on the array when obs is off.  A submission appends one
    ``(ops, requests)`` tuple to :attr:`log`; the engine calls
    :meth:`fold` at the exit of every ``Simulation.run``.
    """

    __slots__ = ("log", "coalesce_ratio", "batch_path", "batch_ops")

    #: dimensionless ops-per-request ratio buckets (1 = nothing merged)
    _RATIO_BUCKETS = (1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    def __init__(self) -> None:
        self.log: list[tuple[int, int]] = []
        self.coalesce_ratio, self.batch_path, self.batch_ops = default_registry().bound(
            _array_instruments
        )

    def fold(self) -> None:
        """Fold the logged submissions into the instruments and clear the log.

        Counters take one ``inc`` each (integer totals, exact as
        floats), and the ratio histogram one ``observe_many`` in
        submission order, so the running sum rounds as per-submission
        observation would.  Empty batches count as batches but observe
        no ratio; ``batch_ops`` takes an ``inc`` whenever a batch was
        logged, even one of zero ops.
        """
        log = self.log
        if not log:
            return
        n_ops = 0
        ratios = []
        for n, n_requests in log:
            n_ops += n
            if n_requests:
                ratios.append(n / n_requests)
        self.batch_path.inc(len(log))
        log.clear()
        self.batch_ops.inc(n_ops)
        self.coalesce_ratio.observe_many(ratios)


def _array_instruments(reg) -> tuple:
    """:class:`_ArrayObs`' instruments, for :meth:`MetricsRegistry.bound`."""
    return (
        reg.histogram(
            "array.coalesce_ratio",
            "submitted ops per coalesced request, per batch",
            buckets=_ArrayObs._RATIO_BUCKETS,
        ).labels(),
        reg.counter("array.batch_path", "batches submitted through the coalescer").labels(),
        reg.counter("array.batch_ops", "element operations submitted through batches").labels(),
    )


#: the log entry of a single-op submission: one op, one request
_SINGLE = (1, 1)


class ElementArray:
    """An array of disks addressed by (disk, element slot).

    Parameters
    ----------
    n_disks:
        Disks in the array (the architecture's global disk count).
    element_size:
        Bytes per element; offset of slot ``k`` is ``k * element_size``.
    params, scheduler_factory, faults, tracer:
        Forwarded to the underlying :class:`Simulation`.
    """

    def __init__(
        self,
        n_disks: int,
        element_size: int = DEFAULT_ELEMENT_SIZE,
        params: DiskParameters | None = None,
        scheduler_factory: Callable[[], Scheduler] = ElevatorScheduler,
        faults=None,
        tracer=None,
    ) -> None:
        if element_size <= 0:
            raise ValueError(f"element size must be positive, got {element_size}")
        self.element_size = element_size
        self.sim = Simulation(
            n_disks,
            params=params,
            scheduler_factory=scheduler_factory,
            faults=faults,
            tracer=tracer,
        )
        self._obs = None
        sim_obs = self.sim._obs
        if sim_obs is not None and obs_enabled():
            # the engine folds this log at every run() exit
            self._obs = sim_obs.batches = _ArrayObs()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def element_request(
        self,
        disk: int,
        slot: int,
        kind: IOKind,
        n_elements: int = 1,
        priority: int = 10,
        tag: str = "",
    ) -> IORequest:
        """Build a request covering ``n_elements`` contiguous slots."""
        if slot < 0 or n_elements < 1:
            raise ValueError(f"bad element range: slot={slot}, n={n_elements}")
        # positional call: the keyword form costs ~30% more per request
        # and this sits on the scalar submission hot path
        element_size = self.element_size
        return IORequest(
            disk, slot * element_size, n_elements * element_size, kind, priority, tag
        )

    # ------------------------------------------------------------------
    def submit(self, request: IORequest, callback=None) -> None:
        self.sim.submit(request, callback)

    def submit_elements(
        self,
        ops,
        kind: IOKind,
        priority: int = 10,
        tag: str = "",
        callback=None,
        on_complete=None,
    ) -> "BatchSubmission":
        """Submit a batch of single-element operations.

        ``ops`` is an iterable of ``(disk, slot)``.  Contiguous slots on
        the same disk are *coalesced* into one larger request — the I/O
        merging real block layers perform for adjacent element accesses
        — and repeated ``(disk, slot)`` pairs deduplicate into the same
        request (see the module docstring for the full contract).

        ``callback`` fires per coalesced request; ``on_complete`` fires
        once after the whole batch finished (immediately if the batch is
        empty).  The returned :class:`BatchSubmission` is the
        authoritative request list and derives the op→request mapping.
        """
        if not isinstance(ops, list):
            ops = list(ops)
        if len(ops) == 1:
            # nothing to coalesce: the one request the scalar path would
            # build, submitted straight to the engine
            disk, slot = ops[0]
            if slot < 0:
                raise ValueError(f"bad element range: slot={slot}, n=1")
            if not 0 <= disk < len(self.sim.disks):
                raise ValueError(f"request targets unknown disk {disk}")
            if self._obs is not None:
                self._obs.log.append(_SINGLE)
            esize = self.element_size
            req = IORequest(disk, slot * esize, esize, kind, priority, tag)
            if on_complete is not None:
                callback = _BatchGroup(1, callback, on_complete)
            self.sim.submit(req, callback)
            return BatchSubmission((req,), ((disk,), (slot,), esize))
        disks = [op[0] for op in ops]
        slots = [op[1] for op in ops]
        return self.submit_batch(
            disks,
            slots,
            kind,
            priority=priority,
            tag=tag,
            callback=callback,
            on_complete=on_complete,
        )

    def submit_batch(
        self,
        disks,
        slots,
        kind: IOKind,
        n_elements=None,
        priority: int = 10,
        tag: str = "",
        callback=None,
        on_complete=None,
    ) -> "BatchSubmission":
        """Vectorized batch submission from parallel disk/slot arrays.

        ``disks``/``slots`` (and optionally ``n_elements``, per-op run
        lengths defaulting to 1) are parallel sequences — lists or numpy
        arrays — describing one operation per position.  Overlapping and
        adjacent element ranges on the same disk coalesce into single
        requests, submitted in deterministic ``(disk asc, start slot
        asc)`` order — byte-identical to what the per-element loop
        produced, so scheduler decisions and timings are unchanged.
        """
        m = len(disks)
        if len(slots) != m or (n_elements is not None and len(n_elements) != m):
            raise ValueError("disks, slots and n_elements must be parallel")
        # numpy arrays become lists: indexing a list is faster, and the
        # requests then carry Python ints
        disks, slots, n_elements = (
            x.tolist() if hasattr(x, "tolist") else x for x in (disks, slots, n_elements)
        )
        runs = self._coalesce(disks, slots, n_elements)
        return self.submit_runs(
            runs,
            kind,
            n_ops=m,
            priority=priority,
            tag=tag,
            callback=callback,
            on_complete=on_complete,
            op_req=(disks, slots, self.element_size),
        )

    def submit_runs(
        self,
        runs,
        kind: IOKind,
        n_ops: int,
        priority: int = 10,
        tag: str = "",
        callback=None,
        on_complete=None,
        op_req=None,
    ) -> "BatchSubmission":
        """Submit already-coalesced ``(disk, start slot, end slot)`` runs.

        The one submission tail: :meth:`submit_batch` ends here after
        coalescing, and the RAID controller's compiled rebuild phases
        submit their precoalesced runs here directly.  ``runs`` ascend
        by disk, then start — the order the coalescer emits — and each
        becomes one request covering slots ``start .. end - 1``.
        ``n_ops`` is the element operations the runs cover; it only
        feeds the ``array.*`` instruments.  ``op_req`` is the ops'
        ``(disks, slots, element_size)``, from which
        :class:`BatchSubmission` derives the op→request mapping.

        The whole batch is checked before anything is logged or
        submitted (the runs ascend by disk, so the first and the last
        bound the rest): a run on an unknown disk raises ``ValueError``
        and leaves the engine and the instruments untouched.
        """
        if runs:
            n_disks = len(self.sim.disks)
            first = runs[0][0]
            last = runs[-1][0]
            if first < 0 or last >= n_disks:
                raise ValueError(
                    f"request targets unknown disk {first if first < 0 else last}"
                )
        if self._obs is not None:
            self._obs.log.append((n_ops, len(runs)))
        esize = self.element_size
        # positional: the keyword form costs ~30% more per request
        requests = [
            IORequest(d, start * esize, (end - start) * esize, kind, priority, tag)
            for d, start, end in runs
        ]
        submission = BatchSubmission(requests, op_req)
        if on_complete is not None:
            if not requests:
                on_complete()
                return submission
            cb = _BatchGroup(len(requests), callback, on_complete)
        else:
            cb = callback
        self.sim.submit_many(requests, cb)
        return submission

    def _coalesce(self, disks, slots, n_elements):
        """Merge ops into (disk, start, end) runs: sort, then one pass."""
        m = len(disks)
        if n_elements is None:
            order = sorted(range(m), key=lambda k: (disks[k], slots[k]))
        else:
            order = sorted(range(m), key=lambda k: (disks[k], slots[k], n_elements[k]))
        runs: list[tuple[int, int, int]] = []
        # no run open yet: a sentinel no disk id equals (an id of -1
        # must reach submit_runs' check, not merge into "no run")
        cur_disk = None
        cur_start = cur_end = 0
        for k in order:
            d = disks[k]
            s = slots[k]
            e = s + (1 if n_elements is None else n_elements[k])
            if s < 0 or e <= s:
                raise ValueError(f"bad element range: slot={s}, n={e - s}")
            if d == cur_disk and s <= cur_end:
                if e > cur_end:
                    cur_end = e
            else:
                if cur_disk is not None:
                    runs.append((cur_disk, cur_start, cur_end))
                cur_disk, cur_start, cur_end = d, s, e
        if cur_disk is not None:
            runs.append((cur_disk, cur_start, cur_end))
        return runs

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Advance the simulation; returns the clock."""
        return self.sim.run(until)
