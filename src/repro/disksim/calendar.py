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
``docs/performance.md``).  The engine works the heap itself on its hot
path: it pushes each ``OP_COMPLETE`` with ``heapq.heappush`` and pops
every event with ``heapq.heappop``.

Determinism: ``seq`` is globally unique and monotone, so heap
comparisons never reach the opcode and ties break in scheduling order.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

__all__ = ["OP_CALL", "OP_COMPLETE", "TypedCalendar"]

#: Slow-path opcode: dispatch ``action(*args)`` from the call table.
OP_CALL = 0
#: Hot-path opcode: complete disk ``arg0``'s in-flight request.
OP_COMPLETE = 1


class TypedCalendar:
    """Pending-event heap with an ``OP_CALL`` side table.

    The surface the engine relies on:

    * ``_heap`` — the ``(time, seq, opcode, arg0)`` heap, which the
      engine pushes completions onto and pops every event from;
    * :meth:`push_call` — schedule an arbitrary callable;
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
