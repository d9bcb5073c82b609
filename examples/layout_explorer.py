#!/usr/bin/env python3
"""Explore the arrangement design space of §VI-E.

The paper notes its shifted arrangement is not the only one with high
reconstruction availability: any arrangement satisfying Properties 1-3
is "equally powerful", and iterating the transformation function T
generates candidates — but they must be checked.  This explorer:

1. prints the iterate sequence for a chosen n with property reports
   (the Fig. 8 picture);
2. quantifies what each property is worth: reconstruction accesses
   (P1/P2) and large-write accesses (P3) per arrangement;
3. lets you test your own arrangement given as a permutation table.

Run::

    python examples/layout_explorer.py [n]
"""

from __future__ import annotations

import sys

from repro.core import (
    IteratedArrangement,
    MirrorLayout,
    PermutationArrangement,
    property_report,
)
from repro.core.analysis import cost
from repro.experiments.fig8 import arrangement_grid


def explore_iterates(n: int, max_k: int = 6) -> None:
    print(f"Iterating the transformation function T on an n={n} stripe:\n")
    header = f"{'k':>3}  {'P1':<5}{'P2':<5}{'P3':<5}{'rebuild accesses':<18}{'large-write accesses'}"
    print(header)
    print("-" * len(header))
    for k in range(max_k + 1):
        arr = IteratedArrangement(n, k)
        rep = property_report(arr)
        layout = MirrorLayout(n, arr)
        costs = [cost(layout, [f]) for f in range(layout.n_disks)]
        rebuild = max(c.read_accesses for c in costs)
        write = costs[0].large_write_accesses
        print(
            f"{k:>3}  {str(rep['P1']):<5}{str(rep['P2']):<5}{str(rep['P3']):<5}"
            f"{rebuild:<18}{write}"
        )
    print("\nMirror-array contents per iterate (element numbers, Fig. 8 style):")
    for k in range(min(max_k, 5) + 1):
        print(f"\n  iterate {k}:")
        for line in arrangement_grid(n, k).splitlines():
            print(f"    {line}")


def check_custom(n: int) -> None:
    """Check a hand-built arrangement: here, the inverse shift."""
    mapping = {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
    arr = PermutationArrangement(n, mapping)
    print(f"\nCustom arrangement a[i,j] -> (<i-j>_{n}, i): {property_report(arr)}")
    print("Equally powerful to the paper's shifted arrangement:",
          all(property_report(arr).values()))


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    explore_iterates(n)
    check_custom(n)
