"""Experiment: reproduce Table I (paper §VI-A).

Table I enumerates the double-failure situations of the shifted mirror
method with parity, counts their cases combinatorially, and states the
read accesses each needs.  We regenerate it two ways:

* symbolically, from :func:`repro.core.analysis.table1`;
* by brute force, classifying every pair of failed disks and counting
  its plan's data-recovery read accesses with
  :func:`repro.core.analysis.cost`.

The driver asserts the two agree — the reproduction is the agreement.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ..core.analysis import (
    avg_read_accesses_shifted_parity,
    cost,
    table1,
)
from ..core.layouts import shifted_mirror_parity
from .reporting import ExperimentResult, Table

__all__ = ["classify_failure", "enumerate_table1", "run"]


def classify_failure(n: int, failed: tuple[int, int]) -> str:
    """Which Table I situation a pair of failed disks belongs to."""
    parity = 2 * n
    a, b = sorted(failed)
    if b == parity:
        return "F1"
    if (a < n) == (b < n):
        return "F2"
    return "F3"


def enumerate_table1(n: int) -> dict[str, tuple[int, int]]:
    """Brute-force ``situation -> (num_cases, num_read_accesses)``.

    Access counts must be identical within a situation; a mismatch
    would falsify the paper's Table I (it doesn't happen).
    """
    layout = shifted_mirror_parity(n)
    out: dict[str, tuple[int, set[int]]] = {}
    for failed in combinations(range(layout.n_disks), 2):
        situation = classify_failure(n, failed)
        accesses = cost(layout, failed).data_recovery_read_accesses
        count, access_set = out.get(situation, (0, set()))
        access_set.add(accesses)
        out[situation] = (count + 1, access_set)
    result = {}
    for situation, (count, access_set) in out.items():
        if len(access_set) != 1:
            raise AssertionError(
                f"situation {situation} shows mixed access counts {access_set}"
            )
        result[situation] = (count, access_set.pop())
    return result


def run(n_values=(3, 4, 5, 6, 7)) -> ExperimentResult:
    """Regenerate Table I for each n and check it against enumeration."""
    blocks = []
    data = {}
    for n in n_values:
        expected = {r.situation: (r.num_cases, r.num_read_accesses) for r in table1(n)}
        measured = enumerate_table1(n)
        if expected != measured:
            raise AssertionError(
                f"Table I mismatch at n={n}: paper {expected} vs enumerated {measured}"
            )
        table = Table(
            ["situation", "description", "num cases", "read accesses"],
            title=f"Table I, n={n} data disks (enumeration matches closed form)",
        )
        for row in table1(n):
            table.add(row.situation, row.description, row.num_cases, row.num_read_accesses)
        avg = avg_read_accesses_shifted_parity(n)
        blocks.append(
            table.render()
            + f"\nAvg_Read = {avg} = {float(avg):.4f} (= 4n/(2n+1))"
        )
        data[n] = {
            "rows": measured,
            "avg_read": avg,
            "avg_read_matches_4n_over_2n_plus_1": avg == Fraction(4 * n, 2 * n + 1),
        }
    return ExperimentResult(
        experiment_id="table1",
        description="Read accesses of the shifted mirror method with parity, by failure situation",
        text="\n\n".join(blocks),
        data=data,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run())
