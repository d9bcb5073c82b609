"""Element addressing and stripe geometry (paper §II-A terms).

The paper reasons about one *stripe* at a time: an ``n x n`` block of
data elements, its replica block in the mirror array, and (for the
parity variants) a column of parity elements.  This module pins down
the coordinate system shared by every other core module:

* disks within one array are numbered ``0 .. n-1`` left to right;
* elements within one disk are numbered ``0 .. n-1`` top to bottom;
* arrays are named by :class:`ArrayKind` (data / mirror / second
  mirror / parity);
* a *global disk id* enumerates every disk of the architecture, data
  array first, then mirror array(s), then the parity disk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ArrayKind", "StripeGeometry"]


class ArrayKind(str, enum.Enum):
    """Which disk array a disk or element belongs to."""

    DATA = "data"
    MIRROR = "mirror"
    MIRROR2 = "mirror2"  # the three-mirror extension's second mirror array
    PARITY = "parity"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class StripeGeometry:
    """Shape of one stripe for a mirror-family architecture.

    Parameters
    ----------
    n:
        Disks per array; also rows per stripe (the paper picks ``n``
        rows so Property 1 can distribute one replica per mirror disk).
    n_mirror_arrays:
        1 for the mirror methods, 2 for the three-mirror extension.
    has_parity:
        Whether a parity disk is part of the architecture.
    """

    n: int
    n_mirror_arrays: int = 1
    has_parity: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.n_mirror_arrays not in (1, 2):
            raise ValueError(f"n_mirror_arrays must be 1 or 2, got {self.n_mirror_arrays}")

    # ------------------------------------------------------------------
    @property
    def n_disks(self) -> int:
        """Total disks in the architecture."""
        return self.n * (1 + self.n_mirror_arrays) + (1 if self.has_parity else 0)

    # ------------------------------------------------------------------
    # global disk ids: data, mirror, (mirror2,) parity
    # ------------------------------------------------------------------
    def locate_disk(self, global_disk: int) -> tuple[ArrayKind, int]:
        """The array and local disk id of a global disk id."""
        if not 0 <= global_disk < self.n_disks:
            raise IndexError(f"global disk {global_disk} outside {self.n_disks} disks")
        if global_disk < self.n:
            return ArrayKind.DATA, global_disk
        if global_disk < 2 * self.n:
            return ArrayKind.MIRROR, global_disk - self.n
        if self.n_mirror_arrays == 2 and global_disk < 3 * self.n:
            return ArrayKind.MIRROR2, global_disk - 2 * self.n
        return ArrayKind.PARITY, 0
