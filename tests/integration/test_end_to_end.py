"""End-to-end integration: the whole stack working together."""

import functools
import hashlib
import json
import random

import pytest

from repro.common.units import SECOND_US
from repro.flash.page import PageState
from repro.fs import PlainFS
from repro.ftl.block_manager import BlockKind
from repro.nvme import HostNVMeDriver
from repro.timekits import TimeKits
from repro.timessd.config import ContentMode
from repro.timessd.verify import DeviceAuditor
from repro.workloads.msr import msr_trace
from repro.workloads.trace import TraceReplayer

from tests.conftest import make_timessd, small_geometry


#: (days, intensity_scale) of the tier-1 replay: about the smallest with
#: over 2 000 requests, on which foreground and background GC, delta
#: flushes and retention shrinks each fire at least three times.
CUT = (1, 26)

#: sha256 of the cut replay's final ``metrics_snapshot()`` plus its L2P
#: table, as canonical JSON: the GC-heavy simulated result, pinned.  A
#: change that only makes the simulator faster leaves it as it is.
CUT_DIGEST = "8ee07997fb7de95603e1755b63d5fd738081cc9e68386b5d82873acf8eb3d79e"


def _digest(ssd):
    """The perf ledger's ``sim_digest`` payload, hashed the same way."""
    mapping = ssd.mapping
    payload = {
        "metrics": ssd.metrics_snapshot(),
        "l2p": [[lpa, mapping.lookup(lpa)] for lpa in mapping.mapped_lpas()],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def _replay(days, intensity):
    """Replay the msr ``src`` trace on a small TimeSSD; returns the
    device, the replay's stats and the device's digest taken before any
    audit reads it.  Cached, so the hand-written audits, the fsck and
    the golden share one run of the cut."""
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=64, pages_per_block=32),
        retention_floor_us=2 * SECOND_US,
        bloom_segment_max_age_us=SECOND_US,
    )
    trace = msr_trace(
        "src",
        ssd.logical_pages,
        days=days,
        seed=4,
        intensity_scale=intensity,
        working_pages=ssd.logical_pages // 2,
    )
    stats = TraceReplayer(ssd).replay(trace)
    return ssd, stats, _digest(ssd)


class TestTraceDrivenConsistency:
    """Replay a realistic trace, then audit the device's state by hand."""

    @pytest.fixture(scope="class")
    def replayed(self):
        ssd, stats, _digest = _replay(*CUT)
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
        bm = ssd.block_manager
        assert any(bm.reclaimable)
        for ppa, reclaimable in enumerate(bm.reclaimable):
            assert not (reclaimable and bm.valid[ppa]), ppa

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


@pytest.mark.parametrize(
    "days, intensity",
    [
        pytest.param(*CUT, id="cut"),
        pytest.param(2, 400, id="full", marks=pytest.mark.slow),
    ],
)
def test_trace_replay_leaves_a_clean_device(days, intensity):
    """Replay a realistic trace through foreground and background GC,
    delta flushes and retention shrinks, then fsck the whole device.

    ``full`` (101 k requests, 4 M GC page migrations) is the same audit
    at scale."""
    ssd, stats, _digest = _replay(days, intensity)
    assert stats.aborted_at is None
    assert ssd.block_manager.free_block_count > 0
    report = DeviceAuditor(ssd).audit(sample_lpa_stride=1)
    assert report.clean, report.violations[:5]
    # ...and the replay exercised what the audit is meant to vouch for.
    counters = ssd.metrics_snapshot()["counters"]
    assert ssd.gc_runs >= 1
    assert ssd.background_gc_runs >= 1
    assert counters["timessd.delta.flushed_pages"] >= 1
    assert counters["timessd.retention.shrinks"] >= 1


def test_cut_replay_matches_its_committed_digest():
    """Every simulated number of a replay that runs foreground and
    background GC, delta flushes and retention shrinks, to the bit."""
    _ssd, _stats, digest = _replay(*CUT)
    assert digest == CUT_DIGEST


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
        # Restore to the third snapshot and verify byte-exactness.
        target_ts = sorted(snapshots)[2]
        TimeKits(ssd).rollback_lpas(fs.file_lpas("db.bin"), target_ts, threads=4)
        assert fs.read("db.bin", 0, 6 * fs.page_size) == snapshots[target_ts]
