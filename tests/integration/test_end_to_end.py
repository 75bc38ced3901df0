"""End-to-end integration: the whole stack working together."""

import random

import pytest

from repro.common.units import DAY_US, SECOND_US
from repro.flash.page import PageState
from repro.fs import PlainFS
from repro.ftl.block_manager import BlockKind
from repro.nvme import HostNVMeDriver
from repro.timekits import FileRecovery, TimeKits
from repro.timessd.config import ContentMode
from repro.workloads.msr import msr_trace
from repro.workloads.trace import TraceReplayer

from tests.conftest import make_timessd, small_geometry


class TestTraceDrivenConsistency:
    """Replay a realistic trace, then audit the device's entire state."""

    @pytest.fixture(scope="class")
    def replayed(self):
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=64, pages_per_block=32),
            retention_floor_us=2 * SECOND_US,
            bloom_segment_max_age_us=SECOND_US,
        )
        working = ssd.logical_pages // 2
        trace = list(
            msr_trace(
                "src",
                ssd.logical_pages,
                days=2,
                seed=4,
                intensity_scale=400,
                working_pages=working,
            )
        )
        stats = TraceReplayer(ssd).replay(trace)
        assert stats.aborted_at is None
        assert stats.requests > 2000
        return ssd, stats

    def test_gc_ran_and_device_survived(self, replayed):
        ssd, _stats = replayed
        assert ssd.gc_runs + ssd.background_gc_runs > 0
        assert ssd.block_manager.free_block_count > 0

    def test_pvt_agrees_with_mapping(self, replayed):
        """Every mapped LPA's head page is valid; no valid page is
        unreachable from the mapping."""
        ssd, _ = replayed
        valid_ppas = set()
        for lpa in ssd.mapping.mapped_lpas():
            ppa = ssd.mapping.lookup(lpa)
            assert ssd.block_manager.is_valid(ppa), "mapped head not valid"
            valid_ppas.add(ppa)
        geo = ssd.device.geometry
        for pba in range(geo.total_blocks):
            for ppa in geo.pages_of_block(pba):
                if ssd.block_manager.is_valid(ppa):
                    assert ppa in valid_ppas, "orphan valid page %d" % ppa

    def test_valid_pages_hold_their_lpa(self, replayed):
        ssd, _ = replayed
        for lpa in ssd.mapping.mapped_lpas():
            page = ssd.device.peek_page(ssd.mapping.lookup(lpa))
            assert page.state is PageState.PROGRAMMED
            assert page.oob.lpa == lpa

    def test_prt_only_marks_invalid_pages(self, replayed):
        ssd, _ = replayed
        for ppa in list(ssd.index._reclaimable):
            assert not ssd.block_manager.is_valid(ppa)

    def test_chains_timestamp_ordered_everywhere(self, replayed):
        ssd, _ = replayed
        for lpa in list(ssd.mapping.mapped_lpas())[::17]:
            versions, _ = ssd.version_chain(lpa)
            stamps = [v.timestamp_us for v in versions]
            assert stamps == sorted(stamps, reverse=True)

    def test_free_blocks_really_are_erased(self, replayed):
        ssd, _ = replayed
        geo = ssd.device.geometry
        for pba in range(geo.total_blocks):
            if ssd.block_manager.kind(pba) is BlockKind.FREE:
                assert ssd.device.core.write_pointer[pba] == 0

    def test_retention_window_respects_floor(self, replayed):
        ssd, _ = replayed
        # The run never aborted, so the window never dipped below floor
        # while serving writes.
        assert ssd.retention_window_us() >= 0


class TestFullStackRecovery:
    """NVMe driver -> file system -> attack -> TimeKits recovery."""

    def test_file_written_through_fs_recovered_through_nvme(self):
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=64),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
        fs = PlainFS(ssd)
        driver = HostNVMeDriver(ssd)

        fs.create("report.doc")
        original = b"quarterly numbers".ljust(fs.page_size, b".")
        fs.write("report.doc", 0, original)
        t_good = ssd.clock.now_us
        ssd.clock.advance(SECOND_US)

        # Corruption happens through a *different* interface (raw NVMe
        # write, e.g. malware bypassing the FS).
        lpa = fs.file_lpas("report.doc")[0]
        driver.write(lpa, [b"garbage".ljust(fs.page_size, b"!")])

        # Recovery through the vendor NVMe command set.
        driver.rollback(lpa, t=t_good)
        assert fs.read("report.doc", 0, len(original)) == original

    def test_fs_level_recovery_after_heavy_churn(self):
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=64),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
        fs = PlainFS(ssd)
        rng = random.Random(8)
        fs.create("db.bin")
        snapshots = {}
        for round_no in range(12):
            for page in range(6):
                body = (b"r%02dp%d" % (round_no, page)).ljust(fs.page_size, b"\x0a")
                fs.write_pages("db.bin", page, 1, [body])
            snapshots[ssd.clock.now_us] = fs.read(
                "db.bin", 0, 6 * fs.page_size
            )
            ssd.clock.advance(5 * SECOND_US)
            # Background noise from other "applications".
            for _ in range(30):
                fs_lpa = rng.randrange(100, 400)
                noise = bytes([rng.randrange(256)]) * fs.page_size
                ssd.write(fs_lpa, noise)
                ssd.clock.advance(20_000)
        kits = TimeKits(ssd)
        recovery = FileRecovery(kits)
        # Restore to the third snapshot and verify byte-exactness.
        target_ts = sorted(snapshots)[2]
        recovery.recover_file("db.bin", fs.file_lpas("db.bin"), target_ts, threads=4)
        assert fs.read("db.bin", 0, 6 * fs.page_size) == snapshots[target_ts]
