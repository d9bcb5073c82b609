"""Stacks: rotated logical-to-physical disk mappings (paper §II-A, §VI).

"The disks mapping from logical to physical are rotated from stripe to
stripe in order to get load-balance" — a *stack* is the set of stripes
covering all rotations, so that the loss of any physical disks, averaged
over the stack, exercises every logical failure combination with the
weights the analysis assumes (every disk equally likely to fail, [14]).

:class:`RotatedStack` implements the cyclic rotation: in stripe ``s``,
logical disk ``l`` is played by physical disk ``(l + s) % D``.  One
full stack therefore has ``D`` stripes for an architecture with ``D``
disks.  It also fixes the physical placement of elements: within each
physical disk, stripes occupy consecutive element slots, so the element
at (stripe ``s``, row ``j``) sits at per-disk offset ``s * rows + j``.
"""

from __future__ import annotations

import numpy as np

from .layouts import Layout

__all__ = ["RotatedStack"]


class RotatedStack:
    """Cyclic logical-to-physical rotation over a layout's disks.

    Parameters
    ----------
    layout:
        The architecture whose stripes are being placed.
    n_stripes:
        Total stripes laid out; defaults to one full stack
        (= ``layout.n_disks`` stripes).
    rotate:
        If False, every stripe uses the identity mapping — the
        configuration used when measuring one *specific* logical
        failure case in isolation (the throughput experiments enumerate
        logical cases directly, which is statistically equivalent to
        physical enumeration over a rotated stack).
    """

    def __init__(self, layout: Layout, n_stripes: int | None = None, rotate: bool = True) -> None:
        self.layout = layout
        self.n_disks = layout.n_disks
        self.rows = layout.rows
        self.n_stripes = self.n_disks if n_stripes is None else n_stripes
        if self.n_stripes < 1:
            raise ValueError(f"need at least one stripe, got {self.n_stripes}")
        self.rotate = rotate
        # the placement of the whole stack: ``disks[l, s]`` is the
        # physical disk playing logical ``l`` in stripe ``s``, and
        # ``slots[s]`` the per-disk element slots of stripe ``s``;
        # ``_cells`` broadcasts both to (disk, stripe, row) without
        # copying, so a stripe's cell index is two basic slices
        logical = np.arange(self.n_disks)[:, None]
        if rotate:
            disks = (logical + np.arange(self.n_stripes)) % self.n_disks
            disks.setflags(write=False)
        else:
            disks = np.broadcast_to(logical, (self.n_disks, self.n_stripes))
        slots = np.arange(self.n_stripes * self.rows).reshape(self.n_stripes, self.rows)
        shape = (self.n_disks, self.n_stripes, self.rows)
        self._disks = disks
        self._cells = (
            np.broadcast_to(disks[:, :, None], shape),
            np.broadcast_to(slots, shape),
        )

    # ------------------------------------------------------------------
    def physical_disk(self, stripe: int, logical: int) -> int:
        """Physical disk playing ``logical`` in ``stripe``."""
        self._check(stripe, logical)
        if not self.rotate:
            return logical
        return (logical + stripe) % self.n_disks

    def shift(self, stripe: int) -> int:
        """Rotation of ``stripe``: logical ``l`` sits on ``(l + shift) % n_disks``.

        Unchecked — the rebuild's arithmetic placement calls it once per
        stripe of a range it already owns.
        """
        return stripe % self.n_disks if self.rotate else 0

    def logical_disk(self, stripe: int, physical: int) -> int:
        """Logical role of ``physical`` in ``stripe``."""
        self._check(stripe, physical)
        if not self.rotate:
            return physical
        return (physical - stripe) % self.n_disks

    def _check(self, stripe: int, disk: int) -> None:
        if not 0 <= stripe < self.n_stripes:
            raise IndexError(f"stripe {stripe} outside stack of {self.n_stripes}")
        if not 0 <= disk < self.n_disks:
            raise IndexError(f"disk {disk} outside array of {self.n_disks}")

    # ------------------------------------------------------------------
    def element_offset(self, stripe: int, row: int) -> int:
        """Per-disk element slot of (stripe, row)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} outside stripe of {self.rows} rows")
        return stripe * self.rows + row

    def elements_per_disk(self) -> int:
        return self.n_stripes * self.rows

    def place(self, stripe: int, logical_disk: int, row: int) -> tuple[int, int]:
        """Physical ``(disk, element offset)`` of a logical stripe cell.

        This is the innermost call of every rebuild/write sweep, so the
        checks and arithmetic of :meth:`physical_disk` /
        :meth:`element_offset` are inlined rather than delegated.
        """
        if not 0 <= stripe < self.n_stripes:
            raise IndexError(f"stripe {stripe} outside stack of {self.n_stripes}")
        if not 0 <= logical_disk < self.n_disks:
            raise IndexError(f"disk {logical_disk} outside array of {self.n_disks}")
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} outside stripe of {self.rows} rows")
        physical = (logical_disk + stripe) % self.n_disks if self.rotate else logical_disk
        return (physical, stripe * self.rows + row)

    @property
    def placement(self) -> tuple[np.ndarray, np.ndarray]:
        """``(disks, stripes)`` index of every logical ``(disk, stripe)``.

        Two ``(n_disks, n_stripes)``-broadcasting arrays: with ``store``
        viewed as ``(n_disks, n_stripes, rows, ...)``, the assignment
        ``store[disks, stripes] = blocks`` places a ``(n_disks,
        n_stripes, rows, ...)`` stack of logical stripe blocks at once.
        """
        return self._disks, np.arange(self.n_stripes)

    def cells(self, stripe: int) -> tuple[np.ndarray, np.ndarray]:
        """Physical ``(disks, slots)`` of every cell of ``stripe``.

        Two read-only ``(n_disks, rows)`` views of the stack's placement,
        indexed by logical ``(disk, row)``: ``store[disks, slots]`` reads
        the whole stripe as one block in the layout's cell order.
        """
        if not 0 <= stripe < self.n_stripes:
            raise IndexError(f"stripe {stripe} outside stack of {self.n_stripes}")
        disks, slots = self._cells
        return disks[:, stripe], slots[:, stripe]

    # ------------------------------------------------------------------
    def logical_failures(self, physical_failed) -> list[tuple[int, ...]]:
        """Per-stripe logical failure sets for a physical failure set."""
        failed = sorted(set(physical_failed))
        return [
            tuple(sorted(self.logical_disk(s, f) for f in failed))
            for s in range(self.n_stripes)
        ]

    def covers_all_single_failures(self) -> bool:
        """Whether each physical failure hits every logical role once.

        True for a full rotated stack: physical disk ``f`` plays every
        logical role exactly once across the ``D`` stripes, which is
        what lets [14]-style counting average over a single stripe.
        """
        if not self.rotate or self.n_stripes < self.n_disks:
            return False
        roles = {self.logical_disk(s, 0) for s in range(self.n_disks)}
        return roles == set(range(self.n_disks))
