"""``docs/layouts.md`` quotes the cost model, not hand-written figures.

The cost table there is :func:`cost_table`: one row per leaderboard
layout at n = 5 with disk 0 failed, every figure from
:func:`repro.core.analysis.cost`.  Run the file as a script to print
the table after a change to a layout or to ``cost``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.analysis import cost
from repro.core.registry import build_layout, leaderboard_layouts

DOC = Path(__file__).resolve().parent.parent / "docs" / "layouts.md"
N = 5


def cost_table() -> str:
    """The markdown cost table of every leaderboard layout at ``N``."""
    lines = [
        "| layout | read accesses | elements read | survivor reads max/mean "
        "| spread | small write (elements) | large write (accesses) "
        "| storage efficiency | fault tolerance |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name in leaderboard_layouts(N):
        c = cost(build_layout(name, N), [0])
        lines.append(
            f"| `{name}` | {c.read_accesses} | {c.elements_read} "
            f"| {c.read_accesses / c.mean_survivor_reads} | {c.survivor_read_spread} "
            f"| {c.small_write_elements} | {c.large_write_accesses} "
            f"| {c.storage_efficiency} | {c.fault_tolerance} |"
        )
    return "\n".join(lines) + "\n"


def test_layouts_doc_quotes_the_cost_table():
    assert cost_table() in DOC.read_text(encoding="utf-8"), (
        "docs/layouts.md is stale: paste `python tests/test_layout_docs.py`"
    )


if __name__ == "__main__":
    print(cost_table(), end="")
