"""I/O request objects for the disk simulator."""

from __future__ import annotations

import enum
import itertools

__all__ = ["IOKind", "IORequest"]

_next_id = itertools.count()


class IOKind(str, enum.Enum):
    """Read or write."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class IORequest:
    """One disk I/O operation.

    The class is slotted: simulations allocate one of these per I/O,
    and dropping the per-instance ``__dict__`` measurably shrinks both
    allocation time and the resident size of long campaign runs.  The
    constructor is hand-rolled rather than dataclass-generated for the
    same reason — request creation sits on the batch-submission hot
    path, and the generated ``__init__`` plus ``__post_init__`` hook
    costs ~45% more per instance than the flat assignments below.

    Parameters
    ----------
    disk:
        Target disk id within the array.
    offset:
        Byte offset on the disk.
    size:
        Transfer length in bytes.
    kind:
        Read or write.
    priority:
        Lower values are served first by priority-aware schedulers;
        the on-line reconstruction scenario gives user reads priority 0
        and reconstruction I/O priority 10 (paper §III).
    tag:
        Free-form label used by traces and tests (e.g. ``"rebuild"``,
        ``"user"``).
    """

    __slots__ = (
        "disk",
        "offset",
        "size",
        "kind",
        "priority",
        "tag",
        "req_id",
        "submit_time",
        "start_time",
        "finish_time",
        "error",
        "error_kind",
        "attempt",
        "root_id",
    )

    def __init__(
        self,
        disk: int,
        offset: int,
        size: int,
        kind: IOKind,
        priority: int = 10,
        tag: str = "",
        req_id: int | None = None,
        submit_time: float = 0.0,
        start_time: float = 0.0,
        finish_time: float = 0.0,
        error: bool = False,
        error_kind: str = "",
        attempt: int = 0,
        root_id: int = -1,
    ) -> None:
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        if offset < 0:
            raise ValueError(f"request offset must be >= 0, got {offset}")
        self.disk = disk
        self.offset = offset
        self.size = size
        self.kind = kind
        self.priority = priority
        self.tag = tag
        #: globally unique id, fresh from a process-wide counter unless
        #: the caller pins one explicitly
        self.req_id = next(_next_id) if req_id is None else req_id
        # filled in by the engine
        self.submit_time = submit_time
        self.start_time = start_time
        self.finish_time = finish_time
        #: set when the request touched an unreadable sector (see
        #: :mod:`repro.disksim.faults`)
        self.error = error
        #: why the request errored: ``"lse"``, ``"transient"`` or
        #: ``"disk-failed"`` (see :mod:`repro.disksim.faultplan`)
        self.error_kind = error_kind
        #: 0 for a fresh request, k for its k-th retry (see
        #: :class:`repro.raidsim.controller.RetryPolicy`)
        self.attempt = attempt
        #: ``req_id`` of the original request this retry descends from;
        #: ``-1`` for a fresh request.  Fault models key per-operation
        #: state (e.g. a transient's remaining-failure budget) by the
        #: *chain* root, so two independent reads of the same geometry
        #: never share fault state.
        self.root_id = root_id

    def _astuple(self) -> tuple:
        return (
            self.disk,
            self.offset,
            self.size,
            self.kind,
            self.priority,
            self.tag,
            self.req_id,
            self.submit_time,
            self.start_time,
            self.finish_time,
            self.error,
            self.error_kind,
            self.attempt,
            self.root_id,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IORequest:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[union-attr]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple())
        )
        return f"IORequest({fields})"

    @property
    def chain_id(self) -> int:
        """Identity of this request's retry chain (its own id if fresh)."""
        return self.req_id if self.root_id < 0 else self.root_id

    @property
    def latency(self) -> float:
        """Submit-to-finish time (valid after completion)."""
        return self.finish_time - self.submit_time

