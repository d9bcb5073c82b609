"""RAID architectures as *layouts*: content maps, write plans, recovery plans.

A layout fixes, for one stripe, (1) which element lives where, (2) what
must be written to service a logical write, (3) how lost elements are
recovered after disk failures, through one source rule
(:meth:`Layout.read_sources`) that rebuild plans, degraded reads, scrub
repairs and the rebuild's LSE fallback share, and (4) the stripe code:
how every cell's bytes follow from the stripe's data
(:meth:`Layout.encode`).
All the architectures the paper discusses are here:

========================================  =======================================
Class                                     Paper section
========================================  =======================================
:class:`MirrorLayout` (identity arr.)     §II-B  traditional mirror method
:class:`MirrorLayout` (shifted arr.)      §IV    shifted mirror method
:class:`MirrorParityLayout` (identity)    §II-C1 mirror method with parity
:class:`MirrorParityLayout` (shifted)     §V     shifted mirror method with parity
:class:`ThreeMirrorLayout`                §VIII  future-work three-mirror extension
:class:`RAID5Layout`                      §II-C  RAID 5 baseline
:class:`RAID6Layout`                      §II-C2 RAID 6 baseline (EVENODD / RDP)
========================================  =======================================

Global disk numbering is data array, mirror array(s), then parity
disk(s); element rows are per-disk indices within one stripe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from ..codes.evenodd import EvenOdd, smallest_prime_at_least
from ..codes.rdp import RDP
from ..codes.xcode import XCode
from .arrangement import Arrangement, IdentityArrangement, ShiftedArrangement
from .errors import LayoutError, UnrecoverableFailureError
from .reconstruction import ReconstructionPlan, RecoveryMethod, RecoveryStep
from .stripe import ArrayKind, StripeGeometry
from .writes import WritePlan

__all__ = [
    "Content",
    "Layout",
    "MirrorLayout",
    "MirrorParityLayout",
    "ThreeMirrorLayout",
    "DeclusteredMirrorLayout",
    "RAID5Layout",
    "RAID6Layout",
    "RebuildOptimalRDPLayout",
    "XCodeLayout",
    "solve",
    "traditional_mirror",
    "shifted_mirror",
    "traditional_mirror_parity",
    "shifted_mirror_parity",
]


@dataclass(frozen=True)
class Content:
    """What one physical element stores.

    ``kind`` is ``"data"`` (original data element ``a[i, j]``),
    ``"replica"`` (mirror copy of ``a[i, j]``), ``"parity"`` (XOR of
    data row ``j``) or ``"q_parity"`` (RAID 6 diagonal ``j``).
    For data/replica, ``i``/``j`` are the *data-array* coordinates.
    """

    kind: str
    i: int
    j: int


Equations = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=1024)
def _recovery_steps(equations: Equations, unknown: frozenset) -> tuple | None:
    """``(cell, (disks, rows))`` steps recovering every ``unknown`` cell,
    or ``None`` when the equations do not determine them all.

    A step's sources XOR to its cell; each is known or recovered by an
    earlier step.  Equations with one unknown are peeled first; what is
    left goes through GF(2) elimination, where a cell's sources are the
    symmetric difference of the equations that combine to it.
    """
    left = set(unknown)
    steps = []
    pending = [eq for eq in equations if not left.isdisjoint(eq)]
    peeled = True
    while peeled:
        peeled = False
        for eq in pending:
            members = [c for c in eq if c in left]
            if len(members) == 1:
                steps.append((members[0], tuple(c for c in eq if c != members[0])))
                left.discard(members[0])
                peeled = True
        pending = [eq for eq in pending if not left.isdisjoint(eq)]
    # each equation as [bit mask of its unknowns, set of its cells]
    bit = {cell: 1 << k for k, cell in enumerate(sorted(left))}
    system = [[sum(bit[c] for c in eq if c in left), set(eq)] for eq in pending]
    solved = {}
    for cell, b in bit.items():
        i = next((i for i, eq in enumerate(system) if eq[0] & b), None)
        if i is None:
            return None
        pivot = system.pop(i)
        for eq in [*system, *solved.values()]:
            if eq[0] & b:
                eq[0] ^= pivot[0]
                eq[1] ^= pivot[1]
        solved[cell] = pivot
    steps += [(cell, tuple(sorted(cells - {cell}))) for cell, (_, cells) in solved.items()]
    return tuple(
        (cell, tuple(np.array(sources, dtype=np.intp).reshape(-1, 2).T))
        for cell, sources in steps
    )


def solve(equations: Equations, block: np.ndarray, unknown) -> np.ndarray:
    """Recover ``block``'s ``unknown`` cells from XOR ``equations``, in place.

    ``block`` is ``(columns, rows, size)``; the bytes of the ``unknown``
    ``(column, row)`` cells are ignored and overwritten with the
    recovered ones, every other cell is left as it is.  Returns
    ``block``.  Raises :class:`UnrecoverableFailureError`, with
    ``block`` untouched, when the equations do not determine every
    unknown cell.
    """
    steps = _recovery_steps(equations, frozenset(unknown))
    if steps is None:
        raise UnrecoverableFailureError(
            f"the parity equations do not determine cells {sorted(unknown)}"
        )
    for cell, sources in steps:
        block[cell] = np.bitwise_xor.reduce(block[sources], axis=0)
    return block


class Layout:
    """Base class; subclasses fill in the architecture specifics.

    Attributes
    ----------
    n:
        Number of data disks.
    rows:
        Elements per disk per stripe.
    n_disks:
        Total disks in the architecture.
    fault_tolerance:
        Number of arbitrary simultaneous disk failures survived.
    """

    name: str = "layout"
    n: int
    rows: int
    n_disks: int
    fault_tolerance: int

    # -- content ------------------------------------------------------
    def content(self, disk: int, row: int) -> Content:
        """What the element at ``(global disk, row)`` stores."""
        raise NotImplementedError

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        """Physical ``(disk, row)`` of data element ``a[i, j]``."""
        raise NotImplementedError

    def replica_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        """Physical cells holding replicas of ``a[i, j]`` (primary excluded)."""
        return []

    @property
    def data_rows(self) -> int:
        """Data elements per data disk per stripe (the range of ``j``)."""
        return self.rows

    def storage_efficiency(self) -> float:
        """Fraction of raw capacity that stores original data."""
        return self.n * self.data_rows / (self.n_disks * self.rows)

    # -- content bytes ------------------------------------------------
    @cached_property
    def _gather(self) -> np.ndarray:
        """``(n_disks, rows)`` index of every cell into the data block's
        cells (row-major) followed by its row parities."""
        n_data = self.data_rows * self.n
        index = np.empty((self.n_disks, self.rows), dtype=np.intp)
        for disk in range(self.n_disks):
            for row in range(self.rows):
                c = self.content(disk, row)
                if c.kind == "parity":
                    index[disk, row] = n_data + c.j
                elif c.kind in ("data", "replica"):
                    index[disk, row] = c.j * self.n + c.i
                else:
                    raise LayoutError(f"{self.name}: no gather rule for {c.kind} cells")
        return index

    @cached_property
    def _controller_templates(self) -> dict:
        """Start states of :class:`~repro.raidsim.controller.RaidController`
        over this layout (placement and encoded content), by their
        settings; kept here so they are freed with the layout."""
        return {}

    @cached_property
    def _cost_memo(self) -> dict:
        """What :func:`~repro.core.analysis.cost` computes once per
        layout; kept here so it is freed with the layout."""
        return {}

    @cached_property
    def _data_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(disks, rows)`` arrays, each ``(data_rows, n)``, of the data cells."""
        cells = np.array(
            [[self.data_cell(i, j) for i in range(self.n)] for j in range(self.data_rows)],
            dtype=np.intp,
        )
        return cells[..., 0], cells[..., 1]

    def encode(self, data: np.ndarray) -> np.ndarray:
        """The ``(n_disks, rows, size)`` stripe block a data block encodes to.

        ``data`` is the ``(data_rows, n, size)`` data block, ``data[j, i]``
        being element ``a[i, j]``.  Data and replica cells copy their
        element, parity cells hold the XOR of their data row.
        """
        cells = data.reshape(-1, data.shape[-1])
        parity = np.bitwise_xor.reduce(data, axis=1)
        return np.concatenate([cells, parity])[self._gather]

    def data_of(self, block: np.ndarray) -> np.ndarray:
        """The ``(data_rows, n, size)`` data block held in a stripe block."""
        return block[self._data_index]

    def parity_equations(self) -> Equations:
        """Sets of ``(disk, row)`` cells whose bytes XOR to zero.

        The erasure-code layouts declare their code's equations (cached
        by the code); the others recover cell by cell and declare none.
        """
        return ()

    def decode(self, block: np.ndarray, failed) -> np.ndarray:
        """The data block of a stripe block whose ``failed`` columns are lost.

        Every cell of the failed columns is solved from
        :meth:`parity_equations` (:func:`solve`), in place: ``block``'s
        failed columns are overwritten with their recovered bytes, so a
        caller that wants the damaged block kept passes a copy.  This is
        what a ``CODE`` recovery step runs, on a block the controller
        gathered for it.
        """
        equations = self.parity_equations()
        if not equations:
            raise NotImplementedError(f"{self.name} has no parity equations to decode")
        if block.shape[:2] != (self.n_disks, self.rows):
            raise ValueError(
                f"{self.name}: a stripe block is ({self.n_disks}, {self.rows}, size), "
                f"got {block.shape}"
            )
        lost = {(d, r) for d in failed for r in range(self.rows)}
        return self.data_of(solve(equations, block, lost))

    # -- writes --------------------------------------------------------
    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        """Plan a logical write of the given data elements ``(i, j)``."""
        raise NotImplementedError

    def large_write_plan(self, j: int, strategy: str = "rmw") -> WritePlan:
        """Plan a full-row write of data row ``j``."""
        return self.write_plan([(i, j) for i in range(self.n)], strategy)

    # -- source selection -----------------------------------------------
    @cached_property
    def _source_table(self) -> dict:
        """``cell -> (copies, row path, method)``, what :meth:`read_sources` tries.

        ``copies`` are the cells holding the cell's bytes, data cell
        first.  The row path (``None`` without a row parity) lists each
        member's copies, combined by ``method``: XOR for a data or
        replica cell (the rest of its data row plus the parity cell),
        RECOMPUTE for a parity cell (its data row).  Any other cell's
        only copy is itself.
        """
        parity_cell = getattr(self, "parity_cell", None)
        n = self.n
        copies_of = {
            (i, j): (self.data_cell(i, j), *self.replica_cells(i, j))
            for j in range(self.data_rows)
            for i in range(n)
        }
        table = {
            (d, r): (((d, r),), None, None)
            for d in range(self.n_disks)
            for r in range(self.rows)
        }
        for (i, j), copies in copies_of.items():
            path = None
            if parity_cell is not None:
                path = tuple(copies_of[k, j] for k in range(n) if k != i)
                path += ((parity_cell(j),),)
            for cell in copies:  # a data cell and its replicas share one entry
                table[cell] = (copies, path, RecoveryMethod.XOR)
        if parity_cell is not None:
            for j in range(self.data_rows):
                cell = parity_cell(j)
                path = tuple(copies_of[i, j] for i in range(n))
                table[cell] = ((cell,), path, RecoveryMethod.RECOMPUTE)
        return table

    def read_sources(self, cell, unavailable) -> RecoveryStep | None:
        """The cheapest readable way to get the bytes of ``cell``.

        ``unavailable`` is a set of ``(disk, row)`` cells that cannot be
        read: a dead disk contributes all of its cells, a latent sector
        error one cell.  In order of preference the answer is

        1. a copy: the data cell, then each replica; a parity cell's
           only copy is itself (``COPY``);
        2. the row-parity path, each unreadable member swapped for a
           readable copy (``XOR``, or ``RECOMPUTE`` for a parity cell);
        3. a whole-stripe decode (``CODE``; layouts with
           :meth:`parity_equations` only) over every column holding no
           unavailable cell, when at most :attr:`fault_tolerance`
           columns are erased, else over every readable cell, when the
           equations determine the unavailable cells;
        4. ``None``: the bytes are lost.

        Every source of the returned step is readable.  The sources of
        a COPY, XOR or RECOMPUTE step XOR to the cell's bytes.
        """
        found = self._sources(cell, unavailable)
        return None if found is None else RecoveryStep(cell, *found)

    def _sources(self, cell, unavailable) -> tuple | None:
        """:meth:`read_sources` as ``(method, sources)``, without the step."""
        copies, path, method = self._source_table[cell]
        for src in copies:
            if src not in unavailable:
                return RecoveryMethod.COPY, (src,)
        if path is not None:
            sources = []
            for member in path:
                for src in member:
                    if src not in unavailable:
                        sources.append(src)
                        break
                else:
                    break
            else:
                return method, tuple(sources)
        equations = self.parity_equations()
        if equations:
            erased = {disk for disk, _ in unavailable}
            if len(erased) <= self.fault_tolerance:
                return RecoveryMethod.CODE, tuple(
                    (d, r)
                    for d in range(self.n_disks)
                    if d not in erased
                    for r in range(self.rows)
                )
            if _recovery_steps(equations, frozenset(unavailable)) is not None:
                cells = ((d, r) for d in range(self.n_disks) for r in range(self.rows))
                return RecoveryMethod.CODE, tuple(c for c in cells if c not in unavailable)
        return None

    # -- reconstruction -------------------------------------------------
    def reconstruction_plan(self, failed_disks) -> ReconstructionPlan:
        """Plan recovery of every element on the failed disks.

        Lost cells are taken in disk, then row, order, each sourced by
        :meth:`read_sources` with the cells not yet recovered
        unavailable, so a cell recovered earlier may source a later one.
        """
        failed = self._normalize_failed(failed_disks)
        plan = ReconstructionPlan(failed)
        lost = [(f, r) for f in failed for r in range(self.rows)]
        unavailable = set(lost)
        for cell in lost:
            found = self._sources(cell, unavailable)
            if found is None:
                raise UnrecoverableFailureError(
                    f"{self.name}: no surviving source for cell {cell} under "
                    f"failures {list(failed)}"
                )
            plan.add_step(cell, *found)
            unavailable.discard(cell)
        plan.validate(self.n_disks, self.rows)
        return plan

    def _normalize_failed(self, failed_disks) -> tuple[int, ...]:
        failed = tuple(sorted(set(failed_disks)))
        for f in failed:
            if not 0 <= f < self.n_disks:
                raise LayoutError(f"disk {f} outside architecture of {self.n_disks} disks")
        if len(failed) > self.fault_tolerance:
            raise UnrecoverableFailureError(
                f"{self.name}: {len(failed)} failures exceed tolerance "
                f"{self.fault_tolerance}"
            )
        return failed

    def all_failure_sets(self, n_failed: int) -> list[tuple[int, ...]]:
        """Every combination of ``n_failed`` distinct disks."""
        from itertools import combinations

        return [tuple(c) for c in combinations(range(self.n_disks), n_failed)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, name={self.name!r})"


# ======================================================================
# Mirror family
# ======================================================================


class MirrorLayout(Layout):
    """The mirror method (RAID 1 across arrays) under any arrangement.

    Disks ``0..n-1`` are the data array, ``n..2n-1`` the mirror array.
    With the identity arrangement this is the paper's traditional
    mirror method; with the shifted arrangement, the shifted mirror
    method of §IV.
    """

    fault_tolerance = 1

    def __init__(
        self,
        n: int,
        arrangement: Arrangement | None = None,
        name: str | None = None,
    ) -> None:
        self.arrangement = arrangement if arrangement is not None else IdentityArrangement(n)
        if self.arrangement.n != n:
            raise LayoutError(f"arrangement is for n={self.arrangement.n}, layout for n={n}")
        self.n = n
        self.rows = n
        self.geometry = StripeGeometry(n, n_mirror_arrays=1, has_parity=False)
        self.n_disks = self.geometry.n_disks
        shifted = isinstance(self.arrangement, ShiftedArrangement)
        # non-paper arrangements (e.g. the group-rotated middle point)
        # register under their own name instead of the derived default
        self.name = name if name is not None else (
            "shifted-mirror" if shifted else "mirror"
        )

    # -- content ------------------------------------------------------
    def content(self, disk: int, row: int) -> Content:
        array, local = self.geometry.locate_disk(disk)
        if array is ArrayKind.DATA:
            return Content("data", local, row)
        i, j = self.arrangement.data_location(local, row)
        return Content("replica", i, j)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        return (i, j)

    def mirror_cell(self, i: int, j: int) -> tuple[int, int]:
        """Physical cell of the replica of ``a[i, j]``."""
        mi, mj = self.arrangement.mirror_location(i, j)
        return (self.n + mi, mj)

    def replica_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        return [self.mirror_cell(i, j)]

    # -- writes --------------------------------------------------------
    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        plan = WritePlan()
        for i, j in elements:
            disk, row = self.data_cell(i, j)
            plan.add_write(disk, row)
            mdisk, mrow = self.mirror_cell(i, j)
            plan.add_write(mdisk, mrow)
        return plan


class MirrorParityLayout(Layout):
    """The mirror method with parity under any arrangement (§II-C1, §V).

    Disks ``0..n-1`` data, ``n..2n-1`` mirror, ``2n`` parity.  The
    parity element ``c_j`` is the XOR of data row ``j`` exactly as in
    the original architecture; only the mirror array's arrangement
    changes between the traditional and shifted variants.
    """

    fault_tolerance = 2

    def __init__(self, n: int, arrangement: Arrangement | None = None) -> None:
        if n < 2:
            raise LayoutError("mirror-with-parity needs n >= 2 to survive double failures")
        self.arrangement = arrangement if arrangement is not None else IdentityArrangement(n)
        if self.arrangement.n != n:
            raise LayoutError(f"arrangement is for n={self.arrangement.n}, layout for n={n}")
        self.n = n
        self.rows = n
        self.geometry = StripeGeometry(n, n_mirror_arrays=1, has_parity=True)
        self.n_disks = self.geometry.n_disks
        shifted = isinstance(self.arrangement, ShiftedArrangement)
        self.name = "shifted-mirror-parity" if shifted else "mirror-parity"

    @property
    def parity_disk(self) -> int:
        return 2 * self.n

    # -- content ------------------------------------------------------
    def content(self, disk: int, row: int) -> Content:
        array, local = self.geometry.locate_disk(disk)
        if array is ArrayKind.DATA:
            return Content("data", local, row)
        if array is ArrayKind.MIRROR:
            i, j = self.arrangement.data_location(local, row)
            return Content("replica", i, j)
        return Content("parity", -1, row)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        return (i, j)

    def mirror_cell(self, i: int, j: int) -> tuple[int, int]:
        mi, mj = self.arrangement.mirror_location(i, j)
        return (self.n + mi, mj)

    def parity_cell(self, j: int) -> tuple[int, int]:
        return (self.parity_disk, j)

    def replica_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        return [self.mirror_cell(i, j)]

    # -- writes --------------------------------------------------------
    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        if strategy not in ("rmw", "reconstruct"):
            raise ValueError(f"unknown parity strategy {strategy!r}")
        plan = WritePlan()
        by_row: dict[int, set[int]] = {}
        for i, j in elements:
            by_row.setdefault(j, set()).add(i)
        for j, disks in by_row.items():
            for i in disks:
                disk, row = self.data_cell(i, j)
                plan.add_write(disk, row)
                mdisk, mrow = self.mirror_cell(i, j)
                plan.add_write(mdisk, mrow)
            pd, pr = self.parity_cell(j)
            plan.add_write(pd, pr)
            if len(disks) == self.n:
                continue  # full row: parity from new data, no reads
            if strategy == "rmw":
                for i in disks:
                    plan.add_read(*self.data_cell(i, j))
                plan.add_read(pd, pr)
            else:  # reconstruct-write
                for i in range(self.n):
                    if i not in disks:
                        plan.add_read(*self.data_cell(i, j))
        return plan


class ThreeMirrorLayout(Layout):
    """The three-mirror extension (paper §VIII future work; GFS/Ceph-style).

    Two full mirror arrays give a fault tolerance of two without any
    parity computation.  The shifted variant uses the paper's
    arrangement for the first mirror array and its *inverse-shift*
    twin ``a[i, j] -> (<i - j>_n, i)`` for the second, so that each
    data disk's replicas are spread over all disks of *both* arrays
    while the two arrays never co-locate the same pair of elements.
    """

    fault_tolerance = 2

    def __init__(
        self,
        n: int,
        arrangement1: Arrangement | None = None,
        arrangement2: Arrangement | None = None,
    ) -> None:
        self.arr1 = arrangement1 if arrangement1 is not None else IdentityArrangement(n)
        self.arr2 = arrangement2 if arrangement2 is not None else IdentityArrangement(n)
        if self.arr1.n != n or self.arr2.n != n:
            raise LayoutError("arrangement sizes disagree with layout n")
        self.n = n
        self.rows = n
        self.geometry = StripeGeometry(n, n_mirror_arrays=2, has_parity=False)
        self.n_disks = self.geometry.n_disks
        ident = isinstance(self.arr1, IdentityArrangement) and isinstance(
            self.arr2, IdentityArrangement
        )
        self.name = "three-mirror" if ident else "shifted-three-mirror"

    # -- content ------------------------------------------------------
    def content(self, disk: int, row: int) -> Content:
        array, local = self.geometry.locate_disk(disk)
        if array is ArrayKind.DATA:
            return Content("data", local, row)
        arr = self.arr1 if array is ArrayKind.MIRROR else self.arr2
        i, j = arr.data_location(local, row)
        return Content("replica", i, j)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        return (i, j)

    def mirror_cell(self, i: int, j: int, which: int) -> tuple[int, int]:
        arr = self.arr1 if which == 0 else self.arr2
        mi, mj = arr.mirror_location(i, j)
        return (self.n * (1 + which) + mi, mj)

    def replica_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        return [self.mirror_cell(i, j, 0), self.mirror_cell(i, j, 1)]

    # -- writes --------------------------------------------------------
    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        plan = WritePlan()
        for i, j in elements:
            plan.add_write(*self.data_cell(i, j))
            plan.add_write(*self.mirror_cell(i, j, 0))
            plan.add_write(*self.mirror_cell(i, j, 1))
        return plan

    # -- reconstruction -------------------------------------------------
    def reconstruction_plan(self, failed_disks) -> ReconstructionPlan:
        failed = self._normalize_failed(failed_disks)
        plan = ReconstructionPlan(failed)
        failed_set = set(failed)
        # Greedy source choice: prefer the surviving copy on the disk
        # with the fewest reads so far, to keep the load balanced.
        load: dict[int, int] = {}
        for f in failed:
            for row in range(self.rows):
                copies = [
                    cell
                    for cell in self._source_table[f, row][0]
                    if cell[0] not in failed_set
                ]
                if not copies:
                    raise UnrecoverableFailureError(
                        f"all three copies of cell {(f, row)} lost"
                    )
                already = {s.sources[0] for s in plan.steps}
                fresh = [cell for cell in copies if cell in already] or copies
                src = min(fresh, key=lambda cell: load.get(cell[0], 0))
                if src not in already:
                    load[src[0]] = load.get(src[0], 0) + 1
                plan.add_step((f, row), RecoveryMethod.COPY, [src])
        plan.validate(self.n_disks, self.rows)
        return plan


class DeclusteredMirrorLayout(Layout):
    """Parity-declustered mirroring over a pooled ``2n``-disk array.

    The strongest mirror-family competitor to the paper's shifted
    arrangement (Dau et al.'s t-design placements, specialised to
    replication): there is **no** data/mirror array split.  All ``2n``
    disks hold a mix of primaries and replicas, placed by the blocks of
    a resolvable 2-design — concretely, the round-robin 1-factorization
    of the complete graph ``K_{2n}`` (the "circle method").  Row ``j``
    of the stripe is round ``j`` of the tournament: the ``2n`` disks
    split into ``n`` disjoint pairs, and pair ``i`` stores data element
    ``a[i, j]`` on one disk with its replica on the other.

    Because every pair of disks meets exactly once across the
    ``2n - 1`` rounds, the stripe uses all of them as rows.  Rebuilding
    any single disk then copies exactly **one** element from **every**
    survivor — the uniform rebuild load that defines parity
    declustering, and a strictly stronger spread guarantee than the
    shifted arrangement's P1/P2 (which balance only within one array).
    The price is addressing: data coordinates ``(i, j)`` index pairs
    and rounds, not physical columns, so sequential large writes touch
    ``2n`` disks instead of pipelining down two.
    """

    fault_tolerance = 1

    def __init__(self, n: int) -> None:
        if n < 2:
            raise LayoutError("declustered mirroring needs n >= 2 pairs per round")
        self.n = n
        self.n_disks = 2 * n
        self.rows = 2 * n - 1
        self.name = "declustered-mirror"
        m = self.n_disks - 1  # rounds in the 1-factorization
        #: (disk, row) -> (pair index, is_primary)
        self._cells: dict[tuple[int, int], tuple[int, bool]] = {}
        #: (pair index, row) -> (primary disk, replica disk)
        self._pairs: dict[tuple[int, int], tuple[int, int]] = {}
        for j in range(self.rows):
            round_pairs = [(m, j)]
            round_pairs += [((j + k) % m, (j - k) % m) for k in range(1, n)]
            for i, (u, v) in enumerate(round_pairs):
                u, v = min(u, v), max(u, v)
                # alternate which side is primary so each disk holds a
                # deterministic near-even mix of data and replicas
                primary, replica = (u, v) if (i + j) % 2 == 0 else (v, u)
                self._pairs[(i, j)] = (primary, replica)
                self._cells[(primary, j)] = (i, True)
                self._cells[(replica, j)] = (i, False)

    # -- content ------------------------------------------------------
    def content(self, disk: int, row: int) -> Content:
        i, is_primary = self._cells[(disk, row)]
        return Content("data" if is_primary else "replica", i, row)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        try:
            primary, _ = self._pairs[(i, j)]
        except KeyError:
            raise LayoutError(f"data cell ({i}, {j}) outside stripe") from None
        return (primary, j)

    def replica_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        _, replica = self._pairs[(i, j)]
        return [(replica, j)]

    # -- writes --------------------------------------------------------
    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        plan = WritePlan()
        for i, j in elements:
            plan.add_write(*self.data_cell(i, j))
            plan.add_write(*self.replica_cells(i, j)[0])
        return plan


# ======================================================================
# Parity baselines
# ======================================================================


class RAID5Layout(Layout):
    """RAID 5 with a dedicated parity disk, one stripe of ``n`` rows.

    (Rotation of the parity disk across stripes is handled at the stack
    level, as the paper notes; within one stripe the parity column is
    fixed.)
    """

    fault_tolerance = 1

    def __init__(self, n: int) -> None:
        if n < 2:
            raise LayoutError("RAID 5 needs at least two data disks")
        self.n = n
        self.rows = n
        self.n_disks = n + 1
        self.name = "raid5"

    @property
    def parity_disk(self) -> int:
        return self.n

    def content(self, disk: int, row: int) -> Content:
        if disk < self.n:
            return Content("data", disk, row)
        return Content("parity", -1, row)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        return (i, j)

    def parity_cell(self, j: int) -> tuple[int, int]:
        return (self.parity_disk, j)

    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        plan = WritePlan()
        by_row: dict[int, set[int]] = {}
        for i, j in elements:
            by_row.setdefault(j, set()).add(i)
        for j, disks in by_row.items():
            for i in disks:
                plan.add_write(i, j)
            plan.add_write(*self.parity_cell(j))
            if len(disks) == self.n:
                continue
            if strategy == "rmw":
                for i in disks:
                    plan.add_read(i, j)
                plan.add_read(*self.parity_cell(j))
            else:
                for i in range(self.n):
                    if i not in disks:
                        plan.add_read(i, j)
        return plan


class RAID6Layout(Layout):
    """RAID 6 backed by EVENODD or RDP with the "shorten" method (§II-C2).

    ``n`` data disks plus P and Q parity disks.  The stripe has
    ``p - 1`` rows where ``p`` is the code's prime, chosen as the
    smallest prime admitting ``n`` data columns — exactly the shorten
    construction the paper's Fig. 7 references for its RAID 6 curve.

    In (nearly) every failure situation all intact elements must be
    read, which is why its reconstruction availability loses so badly
    to the shifted mirror methods.
    """

    fault_tolerance = 2

    def __init__(self, n: int, code: str = "rdp") -> None:
        if n < 2:
            raise LayoutError("RAID 6 needs at least two data disks")
        if code not in ("evenodd", "rdp"):
            raise ValueError(f"unknown RAID 6 code {code!r}")
        self.n = n
        self.code_name = code
        if code == "evenodd":
            self.p = smallest_prime_at_least(max(n, 3))
        else:  # RDP admits p - 1 data columns
            self.p = smallest_prime_at_least(max(n + 1, 3))
        self.code = (EvenOdd if code == "evenodd" else RDP)(self.p, n)
        self.rows = self.p - 1
        self.n_disks = n + 2
        self.name = f"raid6-{code}"

    @property
    def p_disk(self) -> int:
        return self.n

    @property
    def q_disk(self) -> int:
        return self.n + 1

    def parity_cell(self, j: int) -> tuple[int, int]:
        """The row-parity (P) cell of row ``j``."""
        return (self.p_disk, j)

    def content(self, disk: int, row: int) -> Content:
        if disk < self.n:
            return Content("data", disk, row)
        if disk == self.p_disk:
            return Content("parity", -1, row)
        return Content("q_parity", -1, row)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        return (i, j)

    def encode(self, data: np.ndarray) -> np.ndarray:
        row_par, diag_par = self.code.encode(data)
        return np.concatenate([data.transpose(1, 0, 2), row_par[None], diag_par[None]])

    def parity_equations(self) -> Equations:
        """The code's rows and diagonals; its columns are the disks."""
        return self.code.equations

    def q_rows_updated(self, i: int, j: int) -> list[int]:
        """Q elements a single-element modification of ``a[i, j]`` dirties.

        This is where RAID 6 loses update optimality (§II-C2):

        * **EVENODD** — the element's own diagonal ``<i + j>_p`` gets a
          new Q, *unless* the element lies on the special diagonal
          ``p - 1``, in which case the adjuster S changes and **every**
          Q element must be rewritten;
        * **RDP** — diagonals run over data *and* row parity, so the
          update dirties the element's diagonal ``<i + j>_p`` and, via
          the changed row parity ``P_j`` (which sits in column
          ``p - 1``), the diagonal ``<j - 1>_p`` as well (each skipped
          if it is the parity-less diagonal ``p - 1``).
        """
        p = self.p
        own = (i + j) % p
        if self.code_name == "evenodd":
            if own == p - 1:
                return list(range(self.rows))  # the adjuster cascade
            return [own]
        dirty = {own, (j + p - 1) % p}
        return sorted(d for d in dirty if d != p - 1)

    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        """Writes touch both parity disks; sub-row writes read first.

        The RAID 6 codes are *not* update-optimal (§II-C2): see
        :meth:`q_rows_updated` for the per-code Q fan-out.  RMW reads
        the old data elements plus the affected old parity elements.
        """
        plan = WritePlan()
        by_row: dict[int, set[int]] = {}
        for i, j in elements:
            if not 0 <= j < self.rows:
                raise LayoutError(f"row {j} outside stripe of {self.rows} rows")
            by_row.setdefault(j, set()).add(i)
        full_stripe = all(
            len(by_row.get(j, ())) == self.n for j in range(self.rows)
        )
        for j, disks in by_row.items():
            for i in disks:
                plan.add_write(i, j)
            plan.add_write(self.p_disk, j)
            for i in disks:
                for d in self.q_rows_updated(i, j):
                    plan.add_write(self.q_disk, d)
            if full_stripe:
                continue
            if strategy == "rmw":
                for i in disks:
                    plan.add_read(i, j)
                plan.add_read(self.p_disk, j)
                for i in disks:
                    for d in self.q_rows_updated(i, j):
                        plan.add_read(self.q_disk, d)
            else:
                for i in range(self.n):
                    if i not in disks:
                        plan.add_read(i, j)
        return plan

    def reconstruction_plan(self, failed_disks) -> ReconstructionPlan:
        failed = self._normalize_failed(failed_disks)
        plan = ReconstructionPlan(failed)
        if not failed:
            return plan
        failed_set = set(failed)
        single_data = len(failed) == 1 and failed[0] < self.n
        only_q = failed == (self.q_disk,)
        only_p = failed == (self.p_disk,)
        if single_data:
            # row recovery via P, the RAID 5 path
            f = failed[0]
            for j in range(self.rows):
                sources = [self.data_cell(i, j) for i in range(self.n) if i != f]
                sources.append((self.p_disk, j))
                plan.add_step((f, j), RecoveryMethod.XOR, sources)
        elif only_p or only_q:
            # parity regeneration runs the encoder over all the data
            disk = self.p_disk if only_p else self.q_disk
            sources = [
                self.data_cell(i, j) for i in range(self.n) for j in range(self.rows)
            ]
            for j in range(self.rows):
                plan.add_step((disk, j), RecoveryMethod.CODE, sources)
        else:
            # double failure: the generic decode reads *every* intact
            # element — the paper's core criticism of RAID 6.
            intact_cells = [
                (d, r)
                for d in range(self.n_disks)
                if d not in failed_set
                for r in range(self.rows)
            ]
            for f in failed:
                for r in range(self.rows):
                    plan.add_step((f, r), RecoveryMethod.CODE, intact_cells)
        plan.validate(self.n_disks, self.rows)
        return plan


class RebuildOptimalRDPLayout(RAID6Layout):
    """RDP with minimum-read single-disk rebuild (Wang/Tamo/Bruck spirit).

    Placement and encoding are *identical* to ``RAID6Layout(n, "rdp")``
    — same stripe geometry, same P and Q columns, bit-for-bit the same
    content — so this layout isolates exactly one variable: the
    **recovery plan** for a single failed data disk.

    Plain RDP recovers every lost element over its row (each read: the
    surviving row + P), touching every intact data element.  But each
    lost element also lies on one RDP diagonal, and row and diagonal
    parity sets *overlap*: choosing per lost element between its row
    equation and its diagonal equation, so that the chosen source sets
    share as many elements as possible, minimises the total elements
    read.  That is the minimum-rebuild-access idea of Xiang et al.
    (hybrid RDP recovery) and the Wang/Tamo/Bruck minimum-access MDS
    constructions; for an unshortened stripe it reads ~3/4 of what the
    row-only plan reads.

    The planner searches all ``2^(p-1)`` choices between each lost
    cell's row and diagonal in :meth:`parity_equations` — exact,
    deterministic (lowest assignment mask wins ties) and cheap at the
    stripe sizes this repo simulates; stripes beyond
    :attr:`SEARCH_ROWS_MAX` rows fall back to the row-only plan.
    Double failures and parity-disk failures use the plain RDP paths
    unchanged.
    """

    #: exhaustive-search bound: plans above this many rows use row-only
    SEARCH_ROWS_MAX = 16

    def __init__(self, n: int) -> None:
        super().__init__(n, "rdp")
        self.name = "rebuild-optimal-rdp"

    # -- reconstruction -------------------------------------------------
    def reconstruction_plan(self, failed_disks) -> ReconstructionPlan:
        failed = self._normalize_failed(failed_disks)
        if (
            len(failed) != 1
            or failed[0] >= self.n
            or self.rows > self.SEARCH_ROWS_MAX
        ):
            return super().reconstruction_plan(failed_disks)
        (f,) = failed
        # each lost cell's alternatives: its equations (row first), less itself
        options = [
            [
                tuple(c for c in eq if c != (f, t))
                for eq in self.parity_equations()
                if (f, t) in eq
            ]
            for t in range(self.rows)
        ]
        # the last row's choice varies slowest, so the first minimum found
        # is the lowest row/diagonal assignment mask
        best = min(product(*reversed(options)), key=lambda pick: len(set().union(*pick)))
        plan = ReconstructionPlan(failed)
        for t, sources in enumerate(reversed(best)):
            plan.add_step((f, t), RecoveryMethod.XOR, sources)
        plan.validate(self.n_disks, self.rows)
        return plan


class XCodeLayout(Layout):
    """Vertical RAID 6 via X-Code (Xu & Bruck) — the §II-C2 counterpoint.

    Exactly ``p`` disks (``p`` prime >= 5), each holding ``p`` elements
    per stripe: rows ``0 .. p-3`` are data, row ``p-2`` diagonal parity
    and row ``p-1`` anti-diagonal parity.  Data coordinates follow the
    usual convention: ``a[i, j]`` is data disk ``i``'s ``j``-th data
    element (so ``j < p - 2``).

    Two contrasts with the horizontal codes matter here:

    * a single-element write updates exactly 3 elements on 3 distinct
      disks — the theoretical optimum the paper says horizontal RAID 6
      cannot reach;
    * parity lives on *every* disk, so any failure loses parity too and
      every reconstruction is a full-stripe decode, like RAID 6 — and
      the geometry cannot be shortened (no virtual zero columns), so
      ``n == p`` always.
    """

    fault_tolerance = 2

    def __init__(self, p: int) -> None:
        self.code = XCode(p)  # validates primality and p >= 5
        self.p = p
        self.n = p
        self.rows = p
        self.n_disks = p
        self.name = "xcode"

    @property
    def data_rows(self) -> int:
        return self.p - 2

    # -- content ------------------------------------------------------
    def content(self, disk: int, row: int) -> Content:
        if row < self.data_rows:
            return Content("data", disk, row)
        if row == self.p - 2:
            return Content("parity", -1, disk)
        return Content("q_parity", -1, disk)

    def data_cell(self, i: int, j: int) -> tuple[int, int]:
        if not 0 <= j < self.data_rows:
            raise LayoutError(f"data row {j} outside {self.data_rows} data rows")
        return (i, j)

    def parity_cells_of(self, i: int, j: int) -> list[tuple[int, int]]:
        """The diagonal and anti-diagonal parity cells covering ``a[i, j]``."""
        self.data_cell(i, j)  # bounds check
        diag_col = (i - j - 2) % self.p
        anti_col = (i + j + 2) % self.p
        return [(diag_col, self.p - 2), (anti_col, self.p - 1)]

    def encode(self, data: np.ndarray) -> np.ndarray:
        diag, anti = self.code.encode(data)
        return np.concatenate([data, diag[None], anti[None]]).transpose(1, 0, 2)

    def parity_equations(self) -> Equations:
        """The code's 2p chains; its columns are the disks."""
        return self.code.equations

    # -- writes --------------------------------------------------------
    def write_plan(self, elements, strategy: str = "rmw") -> WritePlan:
        """Update-optimal: element + two parity cells, all on distinct disks."""
        plan = WritePlan()
        for i, j in elements:
            plan.add_write(*self.data_cell(i, j))
            for cell in self.parity_cells_of(i, j):
                plan.add_write(*cell)
            if strategy == "rmw":
                plan.add_read(*self.data_cell(i, j))
                for cell in self.parity_cells_of(i, j):
                    plan.add_read(*cell)
        return plan

    def large_write_plan(self, j: int, strategy: str = "rmw") -> WritePlan:
        """A full data row: n data cells + their 2n parity cells."""
        plan = WritePlan()
        for i in range(self.n):
            plan.add_write(*self.data_cell(i, j))
            for cell in self.parity_cells_of(i, j):
                plan.add_write(*cell)
        return plan

    # -- reconstruction -------------------------------------------------
    def reconstruction_plan(self, failed_disks) -> ReconstructionPlan:
        failed = self._normalize_failed(failed_disks)
        plan = ReconstructionPlan(failed)
        if not failed:
            return plan
        failed_set = set(failed)
        # vertical code: every reconstruction is a stripe decode over
        # all intact columns (parity is lost along with data)
        intact_cells = [
            (d, r)
            for d in range(self.n_disks)
            if d not in failed_set
            for r in range(self.rows)
        ]
        for f in failed:
            for r in range(self.rows):
                plan.add_step((f, r), RecoveryMethod.CODE, intact_cells)
        plan.validate(self.n_disks, self.rows)
        return plan


# ======================================================================
# Convenience constructors (the paper's four protagonists)
# ======================================================================


def traditional_mirror(n: int) -> MirrorLayout:
    """The traditional mirror method (§II-B)."""
    return MirrorLayout(n, IdentityArrangement(n))


def shifted_mirror(n: int) -> MirrorLayout:
    """The shifted mirror method (§IV)."""
    return MirrorLayout(n, ShiftedArrangement(n))


def traditional_mirror_parity(n: int) -> MirrorParityLayout:
    """The traditional mirror method with parity (§II-C1)."""
    return MirrorParityLayout(n, IdentityArrangement(n))


def shifted_mirror_parity(n: int) -> MirrorParityLayout:
    """The shifted mirror method with parity (§V)."""
    return MirrorParityLayout(n, ShiftedArrangement(n))
