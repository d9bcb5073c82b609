"""Scrubbing: detection, repair, and the scrub-before-rebuild payoff."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import UnrecoverableFailureError
from repro.core.layouts import (
    RAID5Layout,
    RAID6Layout,
    XCodeLayout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
)
from repro.disksim.faults import LatentSectorErrors
from repro.raidsim.controller import RaidController
from repro.raidsim.scrub import Scrubber

ELEM = 4 * 1024 * 1024


def _ctrl(layout, lse, **kw):
    kw.setdefault("n_stripes", 4)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, element_size=ELEM, lse=lse, **kw)


def test_scrubber_requires_fault_model():
    ctrl = RaidController(shifted_mirror(3), n_stripes=2, payload_bytes=8)
    with pytest.raises(ValueError, match="LSE model"):
        Scrubber(ctrl)


def test_clean_array_scrub_reports_clean():
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror(3), lse)
    report = Scrubber(ctrl).run()
    assert report.clean
    assert report.elements_scanned == 6 * 4 * 3
    assert report.errors_repaired == 0
    assert report.scan_throughput_mbps > 0


def test_scan_runs_at_streaming_rate_per_disk():
    """The sweep is sequential per disk and parallel across disks."""
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror(3), lse, n_stripes=16)
    report = Scrubber(ctrl).run()
    # 6 disks each streaming ~54.8 MB/s
    assert report.scan_throughput_mbps == pytest.approx(6 * 54.8, rel=0.05)


def test_scrub_finds_and_repairs_mirror_lse():
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror(3), lse)
    (rep_cell,) = ctrl.layout.replica_cells(0, 1)
    pd, slot = ctrl.place(1, rep_cell)
    lse.inject(pd, slot)
    report = Scrubber(ctrl).run()
    assert report.errors_found == 1
    assert report.errors_repaired == 1
    assert report.fully_repaired
    assert not lse.is_bad(pd, slot)  # rewrite healed the sector


def test_scrub_repairs_parity_element_from_row():
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror_parity(3), lse)
    pd, slot = ctrl.place(2, ctrl.layout.parity_cell(1))
    lse.inject(pd, slot)
    report = Scrubber(ctrl).run()
    assert report.errors_repaired == 1


def test_scrub_repairs_many_random_errors():
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror_parity(4), lse, n_stripes=6)
    rng = np.random.default_rng(5)
    lse.inject_random(rng, 8, ctrl.layout.n_disks, 6 * 4)
    report = Scrubber(ctrl).run()
    assert report.errors_found == 8
    assert report.fully_repaired
    assert len(lse) == 0


def test_element_with_both_copies_dead_is_unrepairable_in_mirror():
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror(3), lse)
    data_cell = ctrl.layout.data_cell(0, 1)
    (rep_cell,) = ctrl.layout.replica_cells(0, 1)
    for cell in (data_cell, rep_cell):
        lse.inject(*ctrl.place(0, cell))
    report = Scrubber(ctrl).run()
    assert report.errors_found == 2
    assert len(report.unrepairable) == 2
    assert not report.fully_repaired


def test_parity_variant_repairs_dual_copy_loss_via_parity():
    """Same double hit, but the parity path still regenerates both."""
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror_parity(3), lse)
    data_cell = ctrl.layout.data_cell(0, 1)
    (rep_cell,) = ctrl.layout.replica_cells(0, 1)
    for cell in (data_cell, rep_cell):
        lse.inject(*ctrl.place(0, cell))
    report = Scrubber(ctrl).run()
    assert report.fully_repaired


def test_scrub_before_rebuild_prevents_data_loss():
    """The operational story: the same LSE that kills a mirror rebuild
    is harmless if a scrub ran first."""
    def poisoned_controller():
        lse = LatentSectorErrors(ELEM)
        ctrl = _ctrl(traditional_mirror(3), lse)
        (rep_cell,) = ctrl.layout.replica_cells(0, 1)
        lse.inject(*ctrl.place(1, rep_cell))
        return ctrl

    # without scrubbing: data loss
    with pytest.raises(UnrecoverableFailureError):
        poisoned_controller().rebuild([0])
    # with a scrub first: clean rebuild
    ctrl = poisoned_controller()
    report = Scrubber(ctrl).run()
    assert report.fully_repaired
    assert ctrl.rebuild([0]).verified


def test_scrub_without_repair_only_reports():
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(shifted_mirror(3), lse)
    (rep_cell,) = ctrl.layout.replica_cells(1, 1)
    pd, slot = ctrl.place(0, rep_cell)
    lse.inject(pd, slot)
    report = Scrubber(ctrl).run(repair=False)
    assert report.errors_found == 1
    assert report.errors_repaired == 0
    assert lse.is_bad(pd, slot)


@pytest.mark.parametrize(
    "layout",
    [RAID5Layout(4), RAID6Layout(4, "rdp"), XCodeLayout(5)],
    ids=lambda lay: lay.name,
)
def test_parity_and_code_layouts_repair_one_lse_per_stripe(layout):
    """The row-parity path (RAID 5, RDP's P) or a whole-stripe decode
    (X-Code) regenerates a lone unreadable element of any kind."""
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(layout, lse)
    bad = [
        ctrl.place(s, (layout.n_disks - 1 - s, (2 * s + 1) % layout.rows))
        for s in range(ctrl.n_stripes)
    ]
    for pd, slot in bad:
        lse.inject(pd, slot)
    report = Scrubber(ctrl).run()
    assert report.errors_found == report.errors_repaired == len(bad)
    assert report.fully_repaired
    assert len(lse) == 0


def test_two_lses_in_one_raid5_row_stay_unrepairable():
    """Each of the two is the other's only way back; a lone LSE in
    another stripe is still repaired."""
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(RAID5Layout(4), lse)
    pair = [ctrl.place(2, ctrl.layout.data_cell(i, 1)) for i in (0, 3)]
    lone = ctrl.place(1, ctrl.layout.parity_cell(1))
    for cell in (*pair, lone):
        lse.inject(*cell)
    report = Scrubber(ctrl).run()
    assert report.errors_found == 3
    assert report.errors_repaired == 1
    assert sorted(report.unrepairable) == sorted(pair)
