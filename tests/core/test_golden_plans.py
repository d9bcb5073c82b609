"""Every reconstruction plan of every registry layout, pinned by one digest.

A plan's steps and reads are what the rebuild executes and what the
paper's access counts are computed from, so this digest guards any
change to how plans are derived: every registry layout at every
accepted n in 2..7, under every failure set of at most
``fault_tolerance`` disks (the empty set included).  A case contributes
its steps in order and its reads sorted, or ``"unrecoverable"``.  Run
the file as a script to print the current digest and case count.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

from repro.core.errors import LayoutError, UnrecoverableFailureError
from repro.core.registry import REGISTRY, build_layout

GOLDEN_PLANS = "e10940ff5027f47743c3b201ac615f09c4b12bdf89428bfb4929ea606976aee9"
GOLDEN_CASES = 2893


def _cases():
    """``(name, n, layout, failed)`` over every pinned case."""
    for name in REGISTRY:
        for n in range(2, 8):
            try:
                layout = build_layout(name, n)
            except (LayoutError, ValueError):
                continue
            for k in range(layout.fault_tolerance + 1):
                for failed in combinations(range(layout.n_disks), k):
                    yield name, n, layout, failed


def canonical(layout, failed) -> str:
    """One case's plan as a canonical string."""
    try:
        plan = layout.reconstruction_plan(failed)
    except UnrecoverableFailureError:
        return "unrecoverable"
    steps = [(s.target, s.method.value, s.sources) for s in plan.steps]
    reads = sorted((d, r) for d, rows in plan.reads.items() for r in rows)
    return repr((steps, reads))


def plan_digest() -> tuple[str, int]:
    """sha256 over every case's canonical plan, and the number of cases."""
    h = hashlib.sha256()
    count = 0
    for name, n, layout, failed in _cases():
        h.update(f"{name}|{n}|{failed}|{canonical(layout, failed)}\n".encode())
        count += 1
    return h.hexdigest(), count


def test_every_reconstruction_plan_is_pinned():
    digest, count = plan_digest()
    assert count == GOLDEN_CASES
    assert digest == GOLDEN_PLANS


if __name__ == "__main__":
    digest, count = plan_digest()
    print(f"GOLDEN_PLANS = {digest!r}")
    print(f"GOLDEN_CASES = {count}")
