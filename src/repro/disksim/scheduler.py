"""Per-disk I/O schedulers.

Three policies, selectable per simulation:

* :class:`FIFOScheduler` — arrival order;
* :class:`ElevatorScheduler` — C-SCAN: serve the pending request with
  the smallest offset at or beyond the head, wrapping around; this is
  what merges the shifted arrangement's scattered element reads into
  efficient ascending sweeps;
* :class:`PriorityScheduler` — strict priority classes (lower first)
  with elevator order inside each class; used for on-line
  reconstruction, where user reads preempt rebuild I/O (§III).

The elevator variants keep their queues **sorted by (offset, req_id)**
as ``((offset, req_id), request)`` pairs — comparisons stay entirely in
C tuple code (no ``key=`` callable per probe), and ``req_id`` is unique
so ordering never falls through to comparing requests.  Arrivals stage
in a plain append-only list and merge into the sorted queue lazily at
the next pop: a burst of ``add`` calls costs one ``sort`` instead of a
memmove-per-insert.  ``tests/disksim/test_scheduler_property.py``
property-checks that the ordering is identical to the original
linear-scan definition.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Iterable

from .request import IORequest

__all__ = ["Scheduler", "FIFOScheduler", "ElevatorScheduler", "PriorityScheduler"]


class Scheduler:
    """Queue discipline interface for one disk's pending requests."""

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: list[IORequest] = []

    def add(self, request: IORequest) -> None:
        self._pending.append(request)

    def pop(self, head_position: int) -> IORequest:
        """Remove and return the next request to serve."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def peek_all(self) -> Iterable[IORequest]:
        """View of pending requests in queue order (diagnostics).

        May be a live view or an assembled list depending on the
        scheduler's internal layout; it must not be mutated.  Call
        :meth:`snapshot` for an independent copy.
        """
        return self._pending

    def snapshot(self) -> list[IORequest]:
        """Explicit point-in-time copy of the pending requests."""
        return list(self.peek_all())


class FIFOScheduler(Scheduler):
    """First in, first out."""

    __slots__ = ()

    def __init__(self) -> None:
        # a deque pops from the left in O(1); the old list.pop(0)
        # shifted the whole queue on every dispatch
        self._pending: deque[IORequest] = deque()  # type: ignore[assignment]

    def pop(self, head_position: int) -> IORequest:
        if not self._pending:
            raise IndexError("pop from empty scheduler")
        return self._pending.popleft()  # type: ignore[attr-defined]


class ElevatorScheduler(Scheduler):
    """C-SCAN: ascending offsets from the head, wrapping to the lowest.

    The queue is kept sorted by ``(offset, req_id)``; ``pop`` binary
    searches for the first request at or beyond the head and wraps to
    index 0 when nothing is ahead — exactly the request the original
    linear scan selected via ``min`` over the ahead (or whole) pool.
    New arrivals stage unsorted and merge at the next pop.
    """

    __slots__ = ("_q", "_staged")

    def __init__(self) -> None:
        self._q: list[tuple[tuple[int, int], IORequest]] = []
        self._staged: list[IORequest] = []

    def add(self, request: IORequest) -> None:
        # bare request, no sort-key pair — arrivals are the engine's
        # hottest path and the key is only needed once the queue is
        # actually ordered (lazily, at the next pop)
        self._staged.append(request)

    def _merge(self) -> None:
        staged = self._staged
        if staged:
            q = self._q
            if len(staged) == 1 and q:
                r = staged[0]
                insort(q, ((r.offset, r.req_id), r))
            else:
                q.extend(((r.offset, r.req_id), r) for r in staged)
                q.sort()
            staged.clear()

    def pop(self, head_position: int) -> IORequest:
        self._merge()
        q = self._q
        if not q:
            raise IndexError("pop from empty scheduler")
        # the probe 1-tuple sorts before any real ((offset, req_id),
        # request) entry with the same key, and req_id >= 0 means the
        # keys never tie with (head, -1) — so this finds the first
        # entry with offset >= head without ever comparing requests
        idx = bisect_left(q, ((head_position, -1),))
        if idx == len(q):
            idx = 0  # wrap: lowest offset
        return q.pop(idx)[1]

    def __len__(self) -> int:
        return len(self._q) + len(self._staged)

    def __bool__(self) -> bool:
        return bool(self._q) or bool(self._staged)

    def peek_all(self) -> list[IORequest]:
        self._merge()
        return [pair[1] for pair in self._q]


class PriorityScheduler(Scheduler):
    """Strict priority classes, C-SCAN within a class.

    ``priority`` 0 beats 10; within equal priority the elevator rule
    applies.  This realises the paper's on-line reconstruction policy:
    "the failed data is recovered and responded to user with a higher
    priority than other reconstruction I/Os".

    One sorted pair queue per priority class; there are only a handful
    of classes (0 for user reads, 10 for rebuild I/O), so the ``min``
    over class keys is effectively constant-time.
    """

    __slots__ = ("_classes", "_count")

    def __init__(self) -> None:
        self._classes: dict[int, list[tuple[tuple[int, int], IORequest]]] = {}
        self._count = 0

    def add(self, request: IORequest) -> None:
        queue = self._classes.get(request.priority)
        if queue is None:
            queue = self._classes[request.priority] = []
        insort(queue, ((request.offset, request.req_id), request))
        self._count += 1

    def pop(self, head_position: int) -> IORequest:
        if not self._count:
            raise IndexError("pop from empty scheduler")
        top = min(self._classes)
        queue = self._classes[top]
        idx = bisect_left(queue, ((head_position, -1),))
        if idx == len(queue):
            idx = 0
        request = queue.pop(idx)[1]
        if not queue:
            del self._classes[top]
        self._count -= 1
        return request

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def peek_all(self) -> list[IORequest]:
        # classes are separate queues, so this view is necessarily
        # assembled — still only built when diagnostics ask for it
        return [pair[1] for p in sorted(self._classes) for pair in self._classes[p]]
