"""The device auditor: clean after stress, loud after corruption.  That
each corruption raises only its own violation class is
test_verify_corruption.py."""

import random

from repro.common.units import SECOND_US
from repro.timessd.config import ContentMode
from repro.timessd.verify import AuditReport, DeviceAuditor

from tests.conftest import make_timessd, small_geometry


def stressed_ssd(seed=14):
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=48),
        retention_floor_us=2 * SECOND_US,
        bloom_segment_max_age_us=SECOND_US,
    )
    rng = random.Random(seed)
    working = ssd.logical_pages // 2
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(300)
    for _ in range(working * 4):
        roll = rng.random()
        lpa = rng.randrange(working)
        if roll < 0.8:
            ssd.write(lpa)
        elif roll < 0.9:
            ssd.trim(lpa)
        else:
            ssd.read(lpa)
        ssd.clock.advance(rng.choice([300, 800, 20_000]))
    return ssd


def test_fresh_device_is_clean():
    report = DeviceAuditor(make_timessd()).audit()
    assert report.clean
    assert report.checks_run == 6


def test_stressed_device_is_clean():
    ssd = stressed_ssd()
    assert ssd.gc_runs + ssd.background_gc_runs > 0  # stress actually stressed
    report = DeviceAuditor(ssd).audit()
    assert report.clean, report.violations


def test_real_content_stress_is_clean():
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=48),
        content_mode=ContentMode.REAL,
        retention_floor_us=3600 * SECOND_US,
    )
    rng = random.Random(3)
    working = ssd.logical_pages // 3
    for _ in range(working * 4):
        lpa = rng.randrange(working)
        ssd.write(lpa, bytes([rng.randrange(256)]) * ssd.device.geometry.page_size)
        ssd.clock.advance(1500)
    report = DeviceAuditor(ssd).audit(sample_lpa_stride=5)
    assert report.clean, report.violations


class TestAuditorDetectsCorruption:
    def test_detects_pvt_mapping_divergence(self):
        ssd = make_timessd()
        ssd.write(3)
        ppa = ssd.mapping.lookup(3)
        ssd.block_manager.invalidate_page(ppa)  # corrupt: head marked stale
        report = DeviceAuditor(ssd).audit()
        assert not report.clean
        assert any("not valid" in v for v in report.violations)

    def test_detects_orphan_valid_page(self):
        ssd = make_timessd()
        ssd.write(3)
        ssd.clock.advance(10)
        ssd.write(3)
        # Corrupt: re-validate the stale old version.
        old_ppa = ssd.device.peek_page(ssd.mapping.lookup(3)).oob.back_pointer
        ssd.block_manager.mark_valid(old_ppa)
        report = DeviceAuditor(ssd).audit()
        assert any("not any LPA's head" in v for v in report.violations)

    def test_detects_reclaimable_valid_page(self):
        ssd = make_timessd()
        ssd.write(3)
        ssd.block_manager.mark_reclaimable(ssd.mapping.lookup(3))
        report = DeviceAuditor(ssd).audit()
        assert any("marked valid" in v for v in report.violations)

    def test_detects_free_count_drift(self):
        ssd = make_timessd()
        ssd.write(0)
        ssd.block_manager._free_count += 1  # corrupt the counter
        report = DeviceAuditor(ssd).audit()
        assert any("free-block count" in v for v in report.violations)

    def test_detects_negative_census(self):
        ssd = make_timessd()
        ssd.write(0)
        ssd.retained_pages = -1
        report = DeviceAuditor(ssd).audit()
        assert any("negative retained-page" in v for v in report.violations)


def test_report_repr():
    report = AuditReport()
    assert "clean" in repr(report)
    report.problem("x")
    assert "1 violations" in repr(report)
