"""Write plans: small/large writes and parity-update strategies (§VI-C, §VII-B).

A :class:`WritePlan` lists, per global disk, the element rows that must
be written (and, for parity architectures, read first).  As with
reconstruction, the parallel-I/O cost of a plan is the *maximum* number
of element operations on any single disk:

* the traditional and shifted mirror methods write a small write's two
  (or three, with parity) target elements on distinct disks — one write
  access, the theoretical optimum;
* a large write of a full data row lands on ``n`` distinct data disks,
  ``n`` distinct mirror disks (Property 3!) and the parity disk — again
  one access.  Arrangements violating Property 3 need more.

Parity updates for partial-row writes use one of the two classic
strategies (§VII-B):

* ``rmw`` (read-modify-write) — read the old data elements and the old
  parity, then ``new_parity = old_parity XOR old_data XOR new_data``;
* ``reconstruct`` (reconstruct-write) — read the row elements *not*
  being written and recompute parity from scratch.

Full-row writes never read: parity is computed from the new data.

A :class:`CompiledWrite` is the form the controller executes: the
plan's cells and the op's data elements as index arrays, and its reads
and writes coalesced into runs of consecutive rows on one disk, so one
write op costs a fixed handful of operations whatever its size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WritePlan", "ParityStrategy", "CompiledWrite"]

ParityStrategy = str  # "rmw" | "reconstruct"


@dataclass
class WritePlan:
    """Per-disk element reads and writes realising one logical write.

    Attributes
    ----------
    writes:
        ``disk -> sorted rows`` to write.
    reads:
        ``disk -> sorted rows`` that must be read *before* the writes
        (parity-update inputs).  Empty for the plain mirror method.
    """

    writes: dict[int, list[int]] = field(default_factory=dict)
    reads: dict[int, list[int]] = field(default_factory=dict)

    def add_write(self, disk: int, row: int) -> None:
        rows = self.writes.setdefault(disk, [])
        if row not in rows:
            rows.append(row)
            rows.sort()

    def add_read(self, disk: int, row: int) -> None:
        rows = self.reads.setdefault(disk, [])
        if row not in rows:
            rows.append(row)
            rows.sort()

    @property
    def num_write_accesses(self) -> int:
        """Max element writes on one disk == parallel write accesses."""
        if not self.writes:
            return 0
        return max(len(rows) for rows in self.writes.values())

    @property
    def num_read_accesses(self) -> int:
        if not self.reads:
            return 0
        return max(len(rows) for rows in self.reads.values())

    @property
    def total_elements_written(self) -> int:
        return sum(len(rows) for rows in self.writes.values())

    @property
    def total_elements_read(self) -> int:
        return sum(len(rows) for rows in self.reads.values())


def _cell_index(table: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(disks, rows)`` index arrays of a plan's ``disk -> rows`` table."""
    disks = [disk for disk, rows in table.items() for _ in rows]
    rows = [row for rows in table.values() for row in rows]
    return np.array(disks, dtype=np.intp), np.array(rows, dtype=np.intp)


def _runs(table: dict[int, list[int]]) -> tuple[tuple[int, int, int], ...]:
    """A ``disk -> rows`` table as ``(disk, first row, end row)`` runs.

    Repeated rows merge and consecutive rows on one disk join into one
    run; the runs ascend by disk, then first row, and ``end`` is
    exclusive — what the array's coalescer makes of the cells.
    """
    runs = []
    for disk in sorted(table):
        rows = sorted(set(table[disk]))
        if not rows:
            continue
        start = prev = rows[0]
        for row in rows[1:]:
            if row != prev + 1:
                runs.append((disk, start, prev + 1))
                start = row
            prev = row
        runs.append((disk, start, prev + 1))
    return tuple(runs)


@dataclass(frozen=True, slots=True)
class CompiledWrite:
    """One logical write as index arrays over a stripe's logical cells.

    Attributes
    ----------
    writes, reads:
        Logical ``(disks, rows)`` of the cells to write and of those to
        read first; index a stripe's ``(disks, slots)`` placement with
        them to get the physical elements.
    data:
        ``(j, i)`` index of each distinct written element into a
        ``(data_rows, n, size)`` data block.
    pick:
        Which rows of the op's ``n_payloads`` fresh payloads land on
        ``data``: all of them in order, or — when the op names an
        element more than once — the last payload drawn for each.
    n_payloads:
        Payloads the op draws, one per element it names.
    write_runs, read_runs:
        :attr:`writes` and :attr:`reads` coalesced into logical
        ``(disk, first row, end row)`` runs; :meth:`runs_at` places them.
    n_disks:
        The layout's disk count, which a rotation shift wraps around.
    """

    writes: tuple[np.ndarray, np.ndarray]
    reads: tuple[np.ndarray, np.ndarray]
    data: tuple[np.ndarray, np.ndarray]
    pick: slice | np.ndarray
    n_payloads: int
    write_runs: tuple[tuple[int, int, int], ...]
    read_runs: tuple[tuple[int, int, int], ...]
    n_disks: int
    _runs_at: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def compile(cls, plan: WritePlan, elements, n_disks: int) -> "CompiledWrite":
        """Compile ``plan``, the plan of writing data ``elements`` ``(i, j)``
        on a layout of ``n_disks`` disks."""
        last = {element: k for k, element in enumerate(elements)}
        pick = slice(None) if len(last) == len(elements) else np.array(list(last.values()))
        return cls(
            writes=_cell_index(plan.writes),
            reads=_cell_index(plan.reads),
            data=(
                np.array([j for _, j in last], dtype=np.intp),
                np.array([i for i, _ in last], dtype=np.intp),
            ),
            pick=pick,
            n_payloads=len(elements),
            write_runs=_runs(plan.writes),
            read_runs=_runs(plan.reads),
            n_disks=n_disks,
        )

    def runs_at(self, shift: int) -> tuple[tuple, tuple]:
        """``(read runs, write runs)`` placed at a rotation shift.

        Logical disk ``d`` moves to physical ``(d + shift) % n_disks``;
        rows stay relative to the stripe's first slot.  The runs ascend
        by physical disk, then first row — the order the array's
        coalescer submits them in.  Memoised per shift.
        """
        if shift == 0:
            return self.read_runs, self.write_runs
        placed = self._runs_at.get(shift)
        if placed is None:
            n_disks = self.n_disks
            placed = self._runs_at[shift] = tuple(
                tuple(sorted(((d + shift) % n_disks, lo, hi) for d, lo, hi in runs))
                for runs in (self.read_runs, self.write_runs)
            )
        return placed
