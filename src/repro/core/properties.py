"""Checkers for the paper's three arrangement properties (§IV-B, §VI-C).

* **Property 1** — the replicas of the elements on one data disk are
  allocated on all the mirror disks, one per mirror disk.
* **Property 2** — the elements on one mirror disk are replicas from
  all the data disks, one per data disk.
* **Property 3** — the replicas of the elements of one data *row* are
  allocated on all the mirror disks, one per mirror disk (this is what
  keeps large writes one-access).

Property 1 enables one-access reconstruction of a failed data disk;
Property 2 the same for a failed mirror disk; Property 3 preserves the
theoretically optimal large-write cost.  An arrangement satisfying all
three is "equally powerful" to the shifted arrangement (§VI-E).
"""

from __future__ import annotations

from .arrangement import Arrangement

__all__ = [
    "satisfies_property1",
    "satisfies_property2",
    "satisfies_property3",
    "property_report",
]


def satisfies_property1(arrangement: Arrangement) -> bool:
    """Each data disk's replicas land on all ``n`` distinct mirror disks."""
    n = arrangement.n
    return all(
        sorted(arrangement.replica_disks_of_data_disk(i)) == list(range(n)) for i in range(n)
    )


def satisfies_property2(arrangement: Arrangement) -> bool:
    """Each mirror disk holds replicas from all ``n`` distinct data disks."""
    n = arrangement.n
    return all(
        sorted(arrangement.source_disks_of_mirror_disk(mi)) == list(range(n))
        for mi in range(n)
    )


def satisfies_property3(arrangement: Arrangement) -> bool:
    """Each data row's replicas land on all ``n`` distinct mirror disks."""
    n = arrangement.n
    return all(
        sorted(arrangement.replica_disks_of_data_row(j)) == list(range(n)) for j in range(n)
    )


def property_report(arrangement: Arrangement) -> dict[str, bool]:
    """All three properties at once, keyed ``"P1"``/``"P2"``/``"P3"``."""
    return {
        "P1": satisfies_property1(arrangement),
        "P2": satisfies_property2(arrangement),
        "P3": satisfies_property3(arrangement),
    }

