"""Experiment drivers: each regenerates its paper artifact with the
expected qualitative shape (quick parameters keep CI fast)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.experiments import fig7, fig8, fig9, fig10, table1
from repro.experiments.reporting import ExperimentResult, Table, format_series


# ----------------------------------------------------------------------
# reporting primitives
# ----------------------------------------------------------------------


def test_table_render_alignment():
    t = Table(["a", "long header"], title="T")
    t.add(1, "x")
    out = t.render()
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "long header" in lines[1]
    assert lines[2].startswith("-")


def test_table_rejects_wrong_cell_count():
    t = Table(["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_format_series_columns():
    out = format_series("n", [1, 2], {"y": [1.5, 2.5]})
    assert "1.50" in out and "2.50" in out


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------


def test_table1_run_asserts_agreement():
    res = table1.run(n_values=(3, 4))
    assert isinstance(res, ExperimentResult)
    assert res.data[3]["avg_read"] == Fraction(12, 7)
    assert res.data[4]["avg_read_matches_4n_over_2n_plus_1"]
    assert "F1" in res.text and "F3" in res.text


def test_table1_classifier():
    n = 3  # parity disk is 6
    assert table1.classify_failure(n, (0, 6)) == "F1"
    assert table1.classify_failure(n, (0, 2)) == "F2"
    assert table1.classify_failure(n, (3, 5)) == "F2"
    assert table1.classify_failure(n, (0, 4)) == "F3"


# ----------------------------------------------------------------------
# Fig. 7
# ----------------------------------------------------------------------


def test_fig7_run_shape():
    res = fig7.run(2, 50)
    trad = res.data["vs_traditional_percent"]
    r6 = res.data["vs_raid6_percent"]
    assert trad[0] > 50  # small n: little headroom
    assert trad[-1] < 5  # paper: "as low as 5 percent"
    assert r6[-1] <= trad[-1]
    assert all(a >= b for a, b in zip(trad, trad[1:]))


# ----------------------------------------------------------------------
# Fig. 8
# ----------------------------------------------------------------------


def test_fig8_run_checks_paper_claims():
    res = fig8.run()
    assert res.data[1] == {"P1": True, "P2": True, "P3": True}
    assert res.data[3]["P3"] is False
    assert res.data[5]["P3"] is True
    assert "iterate 3" in res.text


def test_fig8_grid_is_permutation_of_elements():
    grid = fig8.arrangement_grid(3, 1)
    numbers = sorted(int(x) for x in grid.split())
    assert numbers == list(range(1, 10))


# ----------------------------------------------------------------------
# Fig. 9 (small sweeps)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_fig9a_improvement_band():
    res = fig9.run_a(n_values=(3, 5), n_stripes=8)
    ratios = res.data["improvement (x)"]
    assert res.data["verified"]
    assert 1.3 < ratios[0] < 2.6
    assert ratios[1] > ratios[0]  # grows with n
    trad = res.data["traditional mirror (MB/s)"]
    assert abs(trad[1] - trad[0]) / trad[0] < 0.05  # flat


@pytest.mark.slow
def test_fig9b_improvement_band():
    res = fig9.run_b(n_values=(3, 5), n_stripes=6)
    ratios = res.data["improvement (x)"]
    assert res.data["verified"]
    assert 1.2 < ratios[0] < 2.0
    assert ratios[1] > ratios[0]


# ----------------------------------------------------------------------
# Fig. 10 (small sweeps)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_fig10_shapes():
    a = fig10.run_a(n_values=(3, 5), n_ops=40)
    b = fig10.run_b(n_values=(3, 5), n_ops=40)
    assert a.data["intact"] and b.data["intact"]
    for res in (a, b):
        ratios = res.data["shifted/traditional"]
        assert all(0.85 < r <= 1.05 for r in ratios)  # "about the same"
    # the parity variant is strictly slower at matching n
    assert (
        b.data["traditional mirror+parity (MB/s)"][0]
        < a.data["traditional mirror (MB/s)"][0]
    )


# ----------------------------------------------------------------------
# extension experiments
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_ext_three_mirror_gain():
    from repro.experiments import ext_three_mirror

    res = ext_three_mirror.run(n_values=(3, 5), n_stripes=6)
    assert res.data["verified"]
    ratios = res.data["improvement (x)"]
    assert ratios[0] > 1.15 and ratios[1] > ratios[0]


@pytest.mark.slow
def test_ext_lse_survival_ordering():
    from repro.experiments import ext_lse

    res = ext_lse.run(n=4, error_counts=(0, 6), trials=8, n_stripes=6)
    at_zero = {name: vals[0] for name, vals in res.data.items() if name != "error_counts"}
    assert all(v == 1.0 for v in at_zero.values())  # no LSEs: everyone survives
    at_six = {name: vals[1] for name, vals in res.data.items() if name != "error_counts"}
    # more protection -> no worse survival
    assert at_six["mirror"] <= at_six["mirror+parity"]
    assert at_six["mirror"] <= at_six["mirror + scrub"]
    assert at_six["mirror+parity + scrub"] == 1.0


@pytest.mark.slow
def test_ext_raid6_measured_comparison():
    from repro.experiments import ext_raid6

    res = ext_raid6.run(n_values=(4, 6), n_stripes=6)
    shifted = res.data["shifted mirror+parity (MB/s)"]
    raid6 = res.data["RAID 6 rdp (MB/s)"]
    trad = res.data["traditional mirror+parity (MB/s)"]
    for s, r, t in zip(shifted, raid6, trad):
        assert s > r > t  # shifted > RAID 6 > traditional, recovered MB/s
    ratios = res.data["shifted over RAID 6 (x)"]
    assert ratios[1] > ratios[0]  # the gap widens with n


def test_run_all_keys_every_experiment_by_its_id():
    from repro.experiments.runner import EXPERIMENT_IDS, run_all

    results = run_all(quick=True)
    assert [r.experiment_id for r in results] == list(EXPERIMENT_IDS)
    picked = run_all(quick=True, only=["fig8", "table1"])
    assert [r.experiment_id for r in picked] == ["table1", "fig8"]
    with pytest.raises(ValueError, match="unknown experiment ids: nope"):
        run_all(quick=True, only=["nope"])
