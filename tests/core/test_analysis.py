"""The cost model against the paper's closed forms (Table I, Fig. 7, §VI).

:func:`repro.core.analysis.cost` counts every figure from a layout's
plans.  Each closed form the paper states, kept in ``analysis`` or
written out here, must agree with it for n = 2..11.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from repro.core import analysis
from repro.core.analysis import cost
from repro.core.arrangement import IteratedArrangement
from repro.core.layouts import (
    MirrorLayout,
    RAID6Layout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from repro.core.registry import LAYOUTS, build_layout
from repro.experiments.ext_three_mirror import (
    shifted_three_mirror,
    traditional_three_mirror,
)
from repro.experiments.table1 import enumerate_table1

NS = range(2, 12)
ACCESSES = "read_accesses"
DATA = "data_recovery_read_accesses"


@cache
def _mean(figure: str, n_failed: int, build, *args) -> Fraction:
    """``figure`` of :func:`cost` on ``build(*args)``, averaged over
    every set of ``n_failed`` failed disks (cached: several tests
    average the same layout)."""
    layout = build(*args)
    cases = layout.all_failure_sets(n_failed)
    return Fraction(sum(getattr(cost(layout, f), figure) for f in cases), len(cases))


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_table1_counts(n):
    rows = {r.situation: r for r in analysis.table1(n)}
    assert rows["F1"].num_cases == 2 * n and rows["F1"].num_read_accesses == 1
    assert rows["F2"].num_cases == n * (n - 1) and rows["F2"].num_read_accesses == 2
    assert rows["F3"].num_cases == n * n and rows["F3"].num_read_accesses == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_table1_cases_sum_to_all_pairs(n):
    total = sum(r.num_cases for r in analysis.table1(n))
    d = 2 * n + 1
    assert total == d * (d - 1) // 2


@pytest.mark.parametrize("n", NS)
def test_table1_matches_cost(n):
    """Every pair of failed disks, classified and counted through ``cost``."""
    paper = {r.situation: (r.num_cases, r.num_read_accesses) for r in analysis.table1(n)}
    assert enumerate_table1(n) == paper


def test_table1_rejects_tiny_n():
    with pytest.raises(ValueError):
        analysis.table1(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_avg_read_closed_form(n):
    assert analysis.avg_read_accesses_shifted_parity(n) == Fraction(4 * n, 2 * n + 1)


@pytest.mark.parametrize("n", NS)
def test_avg_read_matches_enumeration_shifted(n):
    got = _mean(DATA, 2, shifted_mirror_parity, n)
    assert got == analysis.avg_read_accesses_shifted_parity(n) == Fraction(4 * n, 2 * n + 1)


@pytest.mark.parametrize("n", NS)
def test_avg_read_matches_enumeration_traditional(n):
    got = _mean(DATA, 2, traditional_mirror_parity, n)
    assert got == analysis.avg_read_accesses_traditional_parity(n) == Fraction(n)


# ----------------------------------------------------------------------
# gains (the abstract's headline factors)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 12))
def test_mirror_gain_is_n(n):
    """Shifted over traditional mirror: a factor of ``n`` (§IV-B)."""
    gain = _mean(ACCESSES, 1, traditional_mirror, n) / _mean(ACCESSES, 1, shifted_mirror, n)
    assert gain == n


@pytest.mark.parametrize("n", range(2, 12))
def test_parity_gain_is_2n_plus_1_over_4(n):
    """Shifted over traditional mirror with parity: ``(2n + 1) / 4`` (§VI-A)."""
    trad = _mean(DATA, 2, traditional_mirror_parity, n)
    shif = _mean(DATA, 2, shifted_mirror_parity, n)
    assert trad / shif == Fraction(2 * n + 1, 4)


@pytest.mark.parametrize("n", range(1, 12))
def test_three_mirror_closed_forms_match_plans(n):
    """Single-failure rebuild of three mirrors: ``ceil(n/2)`` accesses
    traditional (the failed column split over its two copy disks), 1
    shifted (§VIII); the gain is ``ceil(n/2)``."""
    trad, shif = traditional_three_mirror(n), shifted_three_mirror(n)
    worst_trad = max(cost(trad, [f]).read_accesses for f in range(trad.n_disks))
    worst_shif = max(cost(shif, [f]).read_accesses for f in range(shif.n_disks))
    assert worst_trad == (n + 1) // 2
    assert worst_shif == 1


# ----------------------------------------------------------------------
# Fig. 7 curves
# ----------------------------------------------------------------------


def test_fig7_vs_traditional_formula():
    # 4/(2n+1) * 100
    assert analysis.fig7_ratio_vs_traditional(2) == pytest.approx(80.0)
    assert analysis.fig7_ratio_vs_traditional(50) == pytest.approx(400 / 101)


def test_fig7_reaches_about_five_percent_at_fifty_disks():
    assert analysis.fig7_ratio_vs_traditional(50) < 5.0
    assert analysis.fig7_ratio_vs_raid6(50) < 5.0


def test_fig7_monotone_decreasing_vs_traditional():
    vals = [analysis.fig7_ratio_vs_traditional(n) for n in range(2, 51)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fig7_raid6_curve_at_or_below_traditional_curve():
    """The 'shorten' penalty: RDP needs prime p >= n+1, so its p-1 rows
    are never fewer than the traditional method's n accesses."""
    for n in range(2, 51):
        assert analysis.fig7_ratio_vs_raid6(n, "rdp") <= analysis.fig7_ratio_vs_traditional(
            n
        ) + 1e-12


def test_fig7_series_structure():
    series = analysis.fig7_series(2, 10)
    assert len(series["n"]) == 9
    assert set(series) == {"n", "vs_traditional_percent", "vs_raid6_percent"}


def test_raid6_access_model():
    assert analysis.avg_read_accesses_raid6(4, "evenodd") == 4  # p=5
    assert analysis.avg_read_accesses_raid6(5, "evenodd") == 4  # p=5
    assert analysis.avg_read_accesses_raid6(5, "rdp") == 6  # p=7
    with pytest.raises(ValueError):
        analysis.avg_read_accesses_raid6(5, "pcode")


@pytest.mark.parametrize("code", ["rdp", "evenodd"])
@pytest.mark.parametrize("n", NS)
def test_raid6_access_model_matches_cost(n, code):
    """Every double failure reads all ``p - 1`` rows of every survivor."""
    assert _mean(ACCESSES, 2, RAID6Layout, n, code) == analysis.avg_read_accesses_raid6(n, code)


@pytest.mark.parametrize("n", NS)
def test_fig7_matches_cost(n):
    shifted = _mean(DATA, 2, shifted_mirror_parity, n)
    traditional = _mean(DATA, 2, traditional_mirror_parity, n)
    rdp = _mean(ACCESSES, 2, RAID6Layout, n, "rdp")
    assert analysis.fig7_ratio_vs_traditional(n) == float(shifted / traditional) * 100.0
    assert analysis.fig7_ratio_vs_raid6(n) == float(shifted / rdp) * 100.0


# ----------------------------------------------------------------------
# storage efficiency & write cost (§VI-C, §VI-D)
# ----------------------------------------------------------------------


def test_storage_efficiencies():
    """n/2n, n/(2n+1) and n/(n+2), and the float every layout reports."""
    for n in NS:
        forms = {
            traditional_mirror(n): Fraction(1, 2),
            shifted_mirror_parity(n): Fraction(n, 2 * n + 1),
            RAID6Layout(n, "rdp"): Fraction(n, n + 2),
            traditional_three_mirror(n): Fraction(1, 3),
        }
        for layout, form in forms.items():
            got = cost(layout, ()).storage_efficiency
            assert got == form
            assert layout.storage_efficiency() == float(form)


def test_mirror_parity_efficiency_approaches_half():
    vals = [cost(shifted_mirror_parity(n), ()).storage_efficiency for n in (2, 5, 8, 11)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < Fraction(1, 2)


def test_small_write_costs():
    """2 elements without parity, 3 with it or with three copies: the
    optima for each fault tolerance (§VI-C)."""
    for n in NS:
        assert cost(shifted_mirror(n), ()).small_write_elements == 2
        assert cost(traditional_mirror_parity(n), ()).small_write_elements == 3
        assert cost(shifted_three_mirror(n), ()).small_write_elements == 3


def test_large_write_accesses_helper():
    """One access under Property 3; the §VI-E iterate-3 arrangement,
    which breaks it, needs more."""
    for n in NS:
        assert cost(shifted_mirror(n), ()).large_write_accesses == 1
        assert cost(shifted_mirror_parity(n), ()).large_write_accesses == 1
    bad = MirrorLayout(3, IteratedArrangement(3, 3))
    assert cost(bad, ()).large_write_accesses == 3


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_write_figures_are_planned_once_per_layout(monkeypatch, name):
    """The write and storage figures do not depend on the failure set,
    so ``cost`` plans each data element's write once per layout, however
    many failure sets it is asked about."""
    layout = build_layout(name, 5)
    planned = Counter()
    write_plan = layout.write_plan

    def counting_write_plan(elements, *args, **kwargs):
        if len(elements) == 1:
            planned[elements[0]] += 1
        return write_plan(elements, *args, **kwargs)

    monkeypatch.setattr(layout, "write_plan", counting_write_plan)
    for k in range(layout.fault_tolerance + 1):
        for failed in layout.all_failure_sets(k):
            cost(layout, failed)
    data = [(i, j) for j in range(layout.data_rows) for i in range(layout.n)]
    assert planned == Counter(data)


@pytest.mark.parametrize("n,code", [(4, "rdp"), (6, "rdp"), (4, "evenodd"), (5, "evenodd")])
def test_raid6_small_write_cost_exceeds_mirror_parity_optimum(n, code):
    avg = cost(RAID6Layout(n, code), ()).small_write_elements
    assert avg > 3  # mirror-with-parity achieves exactly 3


def test_raid6_small_write_closed_forms():
    """The small-write average against hand-derived expectations.

    RDP at full width (n = p-1): per element, writes = 1 (data) + 1 (P)
    + |{<i+j>_p, <j-1>_p} - {p-1}| diagonals.  EVENODD: elements on the
    adjuster diagonal rewrite all p-1 Q elements.
    """
    # RDP, n=4, p=5: enumerate by hand over 4x4 cells
    lay_terms = 0
    p, n = 5, 4
    for i in range(n):
        for j in range(p - 1):
            dirty = {(i + j) % p, (j + p - 1) % p} - {p - 1}
            lay_terms += 2 + len(dirty)
    got = cost(RAID6Layout(4, "rdp"), ()).small_write_elements
    assert got == Fraction(lay_terms, n * (p - 1))

    # EVENODD, n=5, p=5
    terms = 0
    for i in range(5):
        for j in range(4):
            q = 4 if (i + j) % 5 == 4 else 1
            terms += 2 + q
    assert cost(RAID6Layout(5, "evenodd"), ()).small_write_elements == Fraction(terms, 20)
