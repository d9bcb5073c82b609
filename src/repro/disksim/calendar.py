"""The typed event calendar of the discrete-event engine.

The calendar holds *pending* events.  Each entry is an integer
**opcode** indexing the engine's dispatch table plus one integer
payload, instead of a bound method and an argument tuple allocated per
event:

====== ============= ===========================================
opcode name          payload (``arg0``)
====== ============= ===========================================
``0``  ``OP_CALL``   unused — ``(action, args)`` lives in a side
                     table keyed by the event's ``seq``
``1``  ``OP_COMPLETE`` disk id whose in-flight request finishes
====== ============= ===========================================

``OP_COMPLETE`` is the hot path: one event per request completion,
carrying no Python objects at all (the request is recovered from the
disk server's ``current`` slot).  ``OP_CALL`` is the fully general
escape hatch behind :meth:`~repro.disksim.events.Simulation.schedule_call`.

Storage
-------
Pending events are kept in a binary heap of ``(time, seq, opcode,
arg0)`` scalar tuples.  The calendar is shallow (one ``OP_COMPLETE``
per busy disk plus a handful of deferred calls), so a scalar heap beats
per-event numpy element ops by a wide margin (see
``docs/performance.md``).

Determinism: ``seq`` is globally unique and monotone, so heap
comparisons never reach the opcode and ties break in scheduling order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

__all__ = ["OP_CALL", "OP_COMPLETE", "TypedCalendar"]

#: Slow-path opcode: dispatch ``action(*args)`` from the call table.
OP_CALL = 0
#: Hot-path opcode: complete disk ``arg0``'s in-flight request.
OP_COMPLETE = 1


class TypedCalendar:
    """Pending-event set with opcode dispatch and batch extraction.

    The surface the engine relies on:

    * :meth:`push` / :meth:`push_call` — schedule one event;
    * :meth:`pop_batch` — remove and return *every* event sharing the
      earliest timestamp, in ``seq`` order;
    * :meth:`take_call` — claim the callable behind an ``OP_CALL``;
    * ``n_taken`` — how many ``OP_CALL`` events have been claimed, ever
      (the engine's dispatch counter is completions plus this).
    """

    __slots__ = ("_heap", "_calls", "n_taken")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, int]] = []
        self._calls: dict[int, tuple[Callable[..., None], tuple]] = {}
        self.n_taken = 0

    # ------------------------------------------------------------------
    def push(self, time: float, seq: int, opcode: int, arg0: int = 0) -> None:
        """Schedule one typed event (hot path — no object payload)."""
        heappush(self._heap, (time, seq, opcode, arg0))

    def push_call(
        self, time: float, seq: int, action: Callable[..., None], args: tuple
    ) -> None:
        """Schedule an arbitrary callable (the ``OP_CALL`` escape hatch)."""
        self._calls[seq] = (action, args)
        heappush(self._heap, (time, seq, OP_CALL, 0))

    def take_call(self, seq: int) -> tuple[Callable[..., None], tuple]:
        """Claim (and forget) the callable behind an ``OP_CALL`` event."""
        self.n_taken += 1
        return self._calls.pop(seq)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    def pop_batch(self) -> list[tuple[float, int, int, int]]:
        """Remove and return the whole earliest-timestamp batch.

        Events sharing the minimum time come back in ``seq`` order —
        exactly the order one-at-a-time pops would produce.
        """
        heap = self._heap
        if not heap:
            return []
        first = heappop(heap)
        t = first[0]
        batch = [first]
        while heap and heap[0][0] == t:
            batch.append(heappop(heap))
        return batch
