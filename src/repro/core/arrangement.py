"""Element arrangements for mirror disk arrays (paper §IV-A, §VI-E).

An *arrangement* describes where, inside one ``n x n`` stripe of the
mirror disk array, the replica of each data element lives.  With
``a[i, j]`` the ``j``-th element of data disk ``i`` and ``b[i', j']``
the ``j'``-th element of mirror disk ``i'``, an arrangement is a
bijection of the ``n^2`` stripe cells.

Two concrete arrangements matter to the paper:

* :class:`IdentityArrangement` — the traditional mirror method,
  ``b[i, j] = a[i, j]``;
* :class:`ShiftedArrangement` — the paper's contribution,
  ``a[i, j] -> b[<i + j>_n, i]`` (transpose, then loop-shift row ``j``
  by its row index).

Section VI-E generalises: the shifted map is one application of a
*transformation function* T that can be iterated to generate further
arrangements (:class:`IteratedArrangement`); odd iterates keep
Properties 1-2, but only some keep Property 3 (see
:mod:`repro.core.properties` and the Fig. 8 experiment).

All index arithmetic uses Python's non-negative ``%``, matching the
paper's ⟨x⟩_y notation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Arrangement",
    "IdentityArrangement",
    "ShiftedArrangement",
    "GroupRotatedArrangement",
    "IteratedArrangement",
    "PermutationArrangement",
    "transform_once",
]


class Arrangement:
    """A bijection of stripe cells from the data array to the mirror array.

    Subclasses implement :meth:`mirror_location`.  The inverse map and
    the dense matrices are derived.

    Parameters
    ----------
    n:
        Number of disks per array (and rows per stripe).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1 disks, got {n}")
        self.n = n
        self._forward: dict[tuple[int, int], tuple[int, int]] | None = None
        self._inverse: dict[tuple[int, int], tuple[int, int]] | None = None

    # ------------------------------------------------------------------
    def mirror_location(self, i: int, j: int) -> tuple[int, int]:
        """Mirror cell ``(disk, row)`` holding the replica of ``a[i, j]``."""
        raise NotImplementedError

    def data_location(self, mi: int, mj: int) -> tuple[int, int]:
        """Data cell ``(disk, row)`` whose replica is ``b[mi, mj]``."""
        self._ensure_maps()
        return self._inverse[(mi, mj)]

    # ------------------------------------------------------------------
    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"cell ({i}, {j}) outside stripe of n={self.n}")

    def _ensure_maps(self) -> None:
        if self._forward is not None:
            return
        fwd: dict[tuple[int, int], tuple[int, int]] = {}
        inv: dict[tuple[int, int], tuple[int, int]] = {}
        for i in range(self.n):
            for j in range(self.n):
                m = self.mirror_location(i, j)
                if m in inv:
                    raise ValueError(
                        f"arrangement is not a bijection: cells {inv[m]} and "
                        f"({i}, {j}) both map to {m}"
                    )
                fwd[(i, j)] = m
                inv[m] = (i, j)
        self._forward = fwd
        self._inverse = inv

    # ------------------------------------------------------------------
    def mirror_layout_labels(self) -> np.ndarray:
        """``(n, n, 2)`` array: ``labels[mi, mj] = (data_disk, data_row)``.

        This is the picture the paper draws in Figs. 3-5: the content of
        the mirror array expressed as data-array coordinates.
        """
        self._ensure_maps()
        n = self.n
        out = np.empty((n, n, 2), dtype=np.int64)
        for (mi, mj), (i, j) in self._inverse.items():
            out[mi, mj] = (i, j)
        return out

    def replica_disks_of_data_disk(self, i: int) -> list[int]:
        """Mirror disks that hold replicas of data disk ``i``'s elements."""
        return [self.mirror_location(i, j)[0] for j in range(self.n)]

    def replica_disks_of_data_row(self, j: int) -> list[int]:
        """Mirror disks that hold replicas of the data elements in row ``j``."""
        return [self.mirror_location(i, j)[0] for i in range(self.n)]

    def source_disks_of_mirror_disk(self, mi: int) -> list[int]:
        """Data disks whose elements are replicated on mirror disk ``mi``."""
        return [self.data_location(mi, mj)[0] for mj in range(self.n)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrangement) or other.n != self.n:
            return NotImplemented
        self._ensure_maps()
        other._ensure_maps()
        return self._forward == other._forward

    def __hash__(self) -> int:
        self._ensure_maps()
        return hash((self.n, tuple(sorted(self._forward.items()))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class IdentityArrangement(Arrangement):
    """Traditional mirroring: the mirror array is a verbatim copy."""

    def mirror_location(self, i: int, j: int) -> tuple[int, int]:
        self._check(i, j)
        return (i, j)


class ShiftedArrangement(Arrangement):
    """The paper's shifted arrangement: ``a[i, j] = b[<i + j>_n, i]``.

    Visualised: take each data *column* onto a mirror *row*, then loop
    shift row ``j`` of the mirror array right by ``j``.
    """

    def mirror_location(self, i: int, j: int) -> tuple[int, int]:
        self._check(i, j)
        return ((i + j) % self.n, i)


class GroupRotatedArrangement(Arrangement):
    """Replica rotation by row *groups*: ``a[i, j] -> b[<i + j div g>_n, j]``.

    A cheap middle point between the traditional and the shifted
    arrangement: the mirror disk advances by one every ``group`` rows
    instead of every row.  A data disk's replicas therefore spread over
    ``ceil(n / g)`` mirror disks (each holding at most ``g`` of them),
    so rebuilding one data disk costs ``g`` parallel read accesses per
    stripe — between the traditional ``n`` and the shifted ``1``.

    ``group=1`` spreads replicas over all mirror disks (Properties 1-2
    hold, like the shifted arrangement); ``group=n`` degenerates to a
    column permutation of the traditional method.  Property 3 holds for
    every ``group`` because rows are never split across mirror rows.
    """

    def __init__(self, n: int, group: int = 2) -> None:
        super().__init__(n)
        if group < 1:
            raise ValueError(f"group size must be >= 1, got {group}")
        self.group = group

    def mirror_location(self, i: int, j: int) -> tuple[int, int]:
        self._check(i, j)
        return ((i + j // self.group) % self.n, j)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GroupRotatedArrangement(n={self.n}, group={self.group})"


class PermutationArrangement(Arrangement):
    """An arrangement given by an explicit cell permutation.

    Parameters
    ----------
    mapping:
        Dict or ``(n, n, 2)`` array giving the mirror ``(disk, row)``
        of every data cell ``(i, j)``.
    """

    def __init__(self, n: int, mapping) -> None:
        super().__init__(n)
        if isinstance(mapping, dict):
            self._map = dict(mapping)
        else:
            arr = np.asarray(mapping)
            if arr.shape != (n, n, 2):
                raise ValueError(f"mapping must have shape ({n}, {n}, 2), got {arr.shape}")
            self._map = {
                (i, j): (int(arr[i, j, 0]), int(arr[i, j, 1]))
                for i in range(n)
                for j in range(n)
            }
        self._ensure_maps()  # validates bijectivity eagerly

    def mirror_location(self, i: int, j: int) -> tuple[int, int]:
        self._check(i, j)
        return self._map[(i, j)]


def transform_once(arrangement: Arrangement) -> PermutationArrangement:
    """Apply the paper's transformation function T once (§VI-E).

    T sends the cell at ``(i, j)`` of the *previous* array to the cell
    ``(<i + j>_n, i)`` of the *next* array — i.e. the next array relates
    to the previous one exactly as the shifted mirror array relates to
    the data array.  Composing T with an arrangement yields the next
    arrangement in Fig. 8's sequence.
    """
    n = arrangement.n
    shift = ShiftedArrangement(n)
    mapping = {}
    for i in range(n):
        for j in range(n):
            mid = arrangement.mirror_location(i, j)
            mapping[(i, j)] = shift.mirror_location(*mid)
    return PermutationArrangement(n, mapping)


class IteratedArrangement(Arrangement):
    """The arrangement after ``k`` applications of the transform T.

    ``IteratedArrangement(n, 1)`` equals :class:`ShiftedArrangement`;
    ``k = 0`` is the identity.  Fig. 8 of the paper displays the
    sequence for ``n = 3``; only odd ``k`` can satisfy Properties 1-2,
    and Property 3 additionally depends on ``k`` and ``n`` (checked
    empirically in the Fig. 8 experiment).
    """

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        if k < 0:
            raise ValueError(f"iteration count must be >= 0, got {k}")
        self.k = k
        current: Arrangement = IdentityArrangement(n)
        for _ in range(k):
            current = transform_once(current)
        self._delegate = current

    def mirror_location(self, i: int, j: int) -> tuple[int, int]:
        self._check(i, j)
        return self._delegate.mirror_location(i, j)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IteratedArrangement(n={self.n}, k={self.k})"
