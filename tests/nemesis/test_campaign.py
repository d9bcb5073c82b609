"""The nemesis campaign loop: determinism, resume, the invariant."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.nemesis import HazardRates, NemesisConfig, run_nemesis_campaign

# a few hours of simulated time: fast, but with real faults in it
TINY = NemesisConfig(
    n=3,
    horizon_s=8 * 600.0,
    tick_s=600.0,
    seed=41,
    rates=HazardRates(
        disk_death_per_day=12.0,
        fail_slow_per_day=24.0,
        transient_burst_per_day=24.0,
        lse_storm_per_day=12.0,
    ),
    n_stripes=4,
)


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        NemesisConfig(horizon_s=0.0)
    with pytest.raises(ValueError, match="tick_s"):
        NemesisConfig(horizon_s=10.0, tick_s=20.0)
    with pytest.raises(ValueError, match="no registered comparison pair"):
        NemesisConfig(family="raid60")


def test_fingerprint_tracks_config_identity():
    assert TINY.fingerprint() == TINY.fingerprint()
    other = dataclasses.replace(TINY, seed=42)
    assert other.fingerprint() != TINY.fingerprint()


def test_campaign_is_bit_reproducible():
    rep1 = run_nemesis_campaign(TINY)
    rep2 = run_nemesis_campaign(TINY)
    assert rep1.digest == rep2.digest
    assert rep1.to_dict() == rep2.to_dict()


def test_both_arrangements_face_the_identical_schedule():
    rep = run_nemesis_campaign(TINY)
    assert rep.schedule.seed == TINY.seed
    assert len(rep.schedule) > 0
    # per-tick active-fault sets derive from the one shared schedule
    assert rep.traditional.n_ticks == rep.shifted.n_ticks == TINY.n_ticks


def test_campaign_attribution_invariant_holds():
    rep = run_nemesis_campaign(TINY)
    rep.assert_invariant()
    assert rep.attribution_coverage == 1.0
    assert rep.unexplained_total == 0
    # the storm was real: probes did hit degraded ticks
    assert rep.traditional.rebuild_ticks > 0


def test_checkpoint_resume_converges_on_the_uninterrupted_report(tmp_path):
    ckpt = tmp_path / "nemesis.ckpt"
    baseline = run_nemesis_campaign(TINY)
    # kill the campaign after 5 fresh ticks...
    assert (
        run_nemesis_campaign(TINY, checkpoint_path=str(ckpt), stop_after_ticks=5)
        is None
    )
    assert ckpt.exists()
    partial = json.loads(ckpt.read_text())
    assert partial["fingerprint"] == TINY.fingerprint()
    assert len(partial["samples"]["traditional"]) == 5
    # ...and resume: the final report matches the never-killed run
    resumed = run_nemesis_campaign(TINY, checkpoint_path=str(ckpt))
    assert resumed is not None
    assert resumed.to_dict() == baseline.to_dict()


def test_checkpoint_refuses_a_different_config(tmp_path):
    ckpt = tmp_path / "nemesis.ckpt"
    assert (
        run_nemesis_campaign(TINY, checkpoint_path=str(ckpt), stop_after_ticks=2)
        is None
    )
    other = dataclasses.replace(TINY, seed=99)
    with pytest.raises(ValueError, match="different campaign config"):
        run_nemesis_campaign(other, checkpoint_path=str(ckpt))


def test_checkpoint_is_fsynced_before_it_replaces_the_old_one(tmp_path, monkeypatch):
    import os

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    ckpt = tmp_path / "nemesis.ckpt"
    assert (
        run_nemesis_campaign(TINY, checkpoint_path=str(ckpt), stop_after_ticks=2)
        is None
    )
    assert calls and calls == ["fsync", "replace"] * (len(calls) // 2)


def test_truncated_checkpoint_is_an_error_naming_the_file(tmp_path, capsys):
    from repro.cli import main

    ckpt = tmp_path / "nemesis.ckpt"
    run_nemesis_campaign(TINY, checkpoint_path=str(ckpt), stop_after_ticks=2)
    ckpt.write_text(ckpt.read_text()[:40])  # a torn write
    rc = main(["nemesis", "--horizon-days", "0.1", "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(ckpt) in err
    assert "Traceback" not in err


def test_report_wire_form_carries_the_timeline_block():
    rep = run_nemesis_campaign(TINY)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    tl = d["active_fault_timeline"]
    assert tl["schema_version"] == 1
    assert tl["n_faults"] == len(rep.schedule)
    assert d["traditional"]["attribution"]["n_unexplained"] == 0
    # the JSON wire form round-trips through the stdlib encoder
    json.loads(json.dumps(d))


@pytest.mark.slow
def test_week_long_campaign_meets_the_acceptance_bar():
    """A seeded week on both arrangements: 100% attribution, bit-stable."""
    config = NemesisConfig(seed=2012)
    assert config.horizon_s >= 7 * 86_400.0
    rep = run_nemesis_campaign(config)
    rep.assert_invariant()
    assert rep.attribution_coverage == 1.0
    assert rep.traditional.attribution.n_excursions > 0  # the storm bit
    assert run_nemesis_campaign(config).digest == rep.digest
