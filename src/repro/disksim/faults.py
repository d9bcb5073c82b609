"""Latent sector errors (LSEs): the silent hazard behind the paper's §I.

The paper motivates multi-fault tolerance with the rising "probability
of disk failures and latent sector errors [3-6]": an LSE is a sector
that turns out to be unreadable exactly when a reconstruction — already
running without redundancy — needs it.  A mirror-method rebuild that
hits an LSE on the single replica disk loses data; the
mirror-with-parity methods survive by re-routing that element through
the parity path.

:class:`LatentSectorErrors` tracks unreadable element slots per disk.
The event engine flags read requests that touch one (``request.error``)
and, like real drives, *heals* a bad slot when it is overwritten
(sector reallocation on write).
"""

from __future__ import annotations

import numpy as np

from .request import IOKind, IORequest

__all__ = ["LatentSectorErrors"]


class LatentSectorErrors:
    """A set of unreadable element slots, addressed as ``(disk, slot)``.

    Parameters
    ----------
    element_size:
        Bytes per element slot; requests are mapped to slots with it.
    """

    def __init__(self, element_size: int) -> None:
        if element_size <= 0:
            raise ValueError(f"element size must be positive, got {element_size}")
        self.element_size = element_size
        self._bad: set[tuple[int, int]] = set()
        #: lifetime count of LSEs cleared by overwrites (sector
        #: reallocations) — the "healed" counter campaigns report
        self.healed_count: int = 0

    # ------------------------------------------------------------------
    def inject(self, disk: int, slot: int) -> None:
        """Mark one element slot unreadable."""
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        self._bad.add((disk, slot))

    def inject_random(
        self,
        rng: np.random.Generator,
        n_errors: int,
        n_disks: int,
        slots_per_disk: int,
    ) -> list[tuple[int, int]]:
        """Scatter ``n_errors`` distinct LSEs uniformly; returns them.

        Raises :class:`ValueError` when the array cannot hold that many
        distinct errors (accounting for cells already bad), which would
        otherwise spin forever looking for a free cell.
        """
        if n_errors < 0:
            raise ValueError(f"n_errors must be >= 0, got {n_errors}")
        if n_disks < 1 or slots_per_disk < 1:
            raise ValueError(
                f"need a non-empty array, got {n_disks} disks x {slots_per_disk} slots"
            )
        already = sum(
            1 for d, s in self._bad if 0 <= d < n_disks and 0 <= s < slots_per_disk
        )
        capacity = n_disks * slots_per_disk - already
        if n_errors > capacity:
            raise ValueError(
                f"cannot place {n_errors} distinct LSEs: only {capacity} free cells "
                f"in a {n_disks} x {slots_per_disk} array"
            )
        placed: list[tuple[int, int]] = []
        while len(placed) < n_errors:
            cell = (int(rng.integers(0, n_disks)), int(rng.integers(0, slots_per_disk)))
            if cell not in self._bad:
                self._bad.add(cell)
                placed.append(cell)
        return placed

    def heal(self, disk: int, slot: int) -> None:
        """Clear an LSE (sector reallocated by a write)."""
        if (disk, slot) in self._bad:
            self._bad.discard((disk, slot))
            self.healed_count += 1

    # ------------------------------------------------------------------
    def is_bad(self, disk: int, slot: int) -> bool:
        return (disk, slot) in self._bad

    def bad_cells(self) -> set[tuple[int, int]]:
        return set(self._bad)

    def __len__(self) -> int:
        return len(self._bad)

    # ------------------------------------------------------------------
    def slots_hit(self, request: IORequest) -> list[int]:
        """Bad slots a request's byte range touches."""
        first = request.offset // self.element_size
        last = (request.offset + request.size - 1) // self.element_size
        return [s for s in range(first, last + 1) if (request.disk, s) in self._bad]

    def on_completion(self, request: IORequest) -> None:
        """Engine hook: flag failed reads, heal overwritten slots.

        Runs once per completion, so it returns at once while no cell
        is bad and otherwise tests the request's slots against the set
        inline; the outcome is :meth:`slots_hit` / :meth:`heal`'s.
        """
        bad = self._bad
        if not bad:
            return
        disk = request.disk
        esize = self.element_size
        offset = request.offset
        slots = range(offset // esize, (offset + request.size - 1) // esize + 1)
        if request.kind is IOKind.READ:
            for s in slots:
                if (disk, s) in bad:
                    request.error = True
                    return
        else:
            for s in slots:
                cell = (disk, s)
                if cell in bad:
                    bad.discard(cell)
                    self.healed_count += 1
