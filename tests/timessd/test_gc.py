import pytest

from repro.common.units import SECOND_US
from repro.ftl.block_manager import BlockKind

from tests.conftest import make_timessd, small_geometry


def versions_at(ssd, lpa):
    versions, _ = ssd.version_chain(lpa)
    return [v.timestamp_us for v in versions]


def fill_one_victim(ssd, lpa=0):
    """Create sealed blocks full of retained old versions of one LPA.

    Writes stripe across channels, so sealing a block takes
    ``channels * pages_per_block`` versions.
    """
    geo = ssd.device.geometry
    stamps = []
    for _ in range(geo.channels * geo.pages_per_block + 4):
        stamps.append(ssd.clock.now_us)
        ssd.write(lpa)
        ssd.clock.advance(1000)
    return stamps


class TestReclaimBlock:
    def test_reclaim_compresses_retained_history(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        stamps = fill_one_victim(ssd)
        geo = ssd.device.geometry
        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        assert victim is not None
        before = versions_at(ssd, 0)
        outcome = ssd.relocate_block(victim, ssd.clock.now_us)
        assert outcome.compressed > 0
        after = versions_at(ssd, 0)
        # All versions (notably those on the reclaimed block) survive.
        assert set(before) <= set(after) | set(before[:1])
        assert set(stamps) <= set(after)

    def test_reclaim_frees_the_block(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        fill_one_victim(ssd)
        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        free_before = ssd.block_manager.free_block_count
        ssd.relocate_block(victim, ssd.clock.now_us)
        assert ssd.block_manager.kind(victim) is BlockKind.FREE
        # The erased victim returns to the pool; the reclaim may have
        # opened fresh GC/delta append blocks (transient, they amortize).
        assert ssd.block_manager.free_block_count >= free_before - 2
        assert ssd.free_page_estimate() > 0

    def test_reclaim_discards_expired_pages(self):
        # group_size=1 so every invalidated PPA is a distinct filter
        # entry and segments roll over quickly.
        ssd = make_timessd(retention_floor_us=0, bloom_capacity=8, bloom_group_size=1)
        fill_one_victim(ssd)
        # Expire everything by recycling all but the active segment.
        while ssd.blooms.drop_oldest() is not None:
            pass
        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        outcome = ssd.relocate_block(victim, ssd.clock.now_us)
        assert outcome.discarded_expired > 0
        # Only what the (undroppable) active segment still covers may be
        # retained — a handful at most.
        assert outcome.compressed <= 8
        assert outcome.discarded_expired > outcome.compressed

    def test_reclaim_skips_prt_marked_pages(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        fill_one_victim(ssd)
        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        # Background compression first: marks pages reclaimable.
        geo = ssd.device.geometry
        for ppa in geo.pages_of_block(victim):
            if not ssd.block_manager.is_valid(ppa) and not ssd.block_manager.reclaimable[ppa]:
                ssd.collector.compress_version_chain(ppa, ssd.clock.now_us)
                break  # one chain covers the whole single-LPA history
        outcome = ssd.relocate_block(victim, ssd.clock.now_us)
        assert outcome.discarded_reclaimable > 0

    def test_migrated_valid_pages_keep_mapping(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        ppb = ssd.device.geometry.pages_per_block
        for lpa in range(ppb):
            ssd.write(lpa, None)
            ssd.clock.advance(100)
        victim = ssd.device.geometry.block_of_page(ssd.mapping.lookup(0))
        ssd.relocate_block(victim, ssd.clock.now_us)
        for lpa in range(ppb):
            assert ssd.mapping.is_mapped(lpa)

    def test_gc_counts_feed_estimator(self):
        ssd = make_timessd(
            retention_floor_us=3600 * SECOND_US, gc_overhead_period_writes=8
        )
        fill_one_victim(ssd)
        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        ssd._collect_garbage(ssd.clock.now_us)
        for _ in range(8):
            ssd.write(1)
        assert ssd.estimator.periods_evaluated >= 1
        assert ssd.estimator.last_overhead_per_write_us > 0


class TestCompressionChainInvariant:
    def test_delta_chain_is_older_than_data_chain(self):
        """The §3.7 invariant: every delta version is older than every
        surviving data-page version of the same LPA."""
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            retention_floor_us=3600 * SECOND_US,
        )
        import random

        rng = random.Random(9)
        working = ssd.logical_pages // 3
        for _ in range(5 * working):
            ssd.write(rng.randrange(working))
            ssd.clock.advance(1200)
        checked = 0
        for lpa in range(0, working, 5):
            versions, _ = ssd.version_chain(lpa)
            data_ts = [v.timestamp_us for v in versions if v.source in ("current", "data-page")]
            delta_ts = [v.timestamp_us for v in versions if v.source.startswith("delta")]
            if data_ts and delta_ts:
                assert max(delta_ts) < min(data_ts)
                checked += 1
        assert checked > 0

    def test_wear_leveling_relocation_preserves_history(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        stamps = fill_one_victim(ssd)
        pba = ssd.device.geometry.block_of_page(ssd.mapping.lookup(0))
        # Relocate via the wear-leveling entry point.
        before = set(versions_at(ssd, 0))
        ssd.relocate_block(pba, ssd.clock.now_us)
        after = set(versions_at(ssd, 0))
        assert before <= after


class TestIdleWindowBound:
    """``background_compress`` admits a retained page against its own
    chain: heading k uncompressed older versions, it costs k + 2 reads
    and k + 1 compressions, each of whose records may flush a delta page.
    One fixed step (three reads, one compression, one program) is only
    the window's floor — a long chain admitted against it would overrun
    the window the docstring promises foreground I/O never waits on."""

    @staticmethod
    def chain_head_first():
        """One LPA with seven retained versions: the newest of them heads
        the richest sealed block, the six older ones fill another."""
        ssd = make_timessd(
            geometry=small_geometry(channels=1, blocks_per_plane=32),
            retention_floor_us=3600 * SECOND_US,
            bloom_segment_max_age_us=None,
        )
        ppb = ssd.device.geometry.pages_per_block
        for _ in range(6):
            ssd.write(0)  # block A: versions 0-5 of LPA 0 ...
        for lpa in range(100, 100 + ppb - 6):
            ssd.write(lpa)  # ... filled with data that stays current
        ssd.write(0)  # block B, offset 0: version 6 heads the chain ...
        head = ssd.mapping.lookup(0)
        for lpa in range(200, 200 + ppb - 1):
            ssd.write(lpa)  # ... then pages overwritten below
        ssd.write(0)  # version 7 is current
        for lpa in range(200, 200 + ppb - 1):
            ssd.write(lpa)
        return ssd, head

    def test_a_window_never_ends_past_its_deadline(self):
        ssd, head = self.chain_head_first()
        device = ssd.device
        assert ssd._background_victims()[0] == device.geometry.block_of_page(head)
        chain = [head] + list(ssd.index.older_versions(
            0, device.core.back_pointer[head], device.core.timestamp_us[head]
        ))
        assert len(chain) == 7
        timing = device.timing
        step_bound = (
            3 * timing.read_us + timing.delta_compress_us + timing.program_us
        )
        timelines = (device.timelines, device.chip_timelines)
        start = max(
            max(tl.busy_until(lane) for lane in range(tl.channels))
            for tl in timelines
        )

        def lanes_end_by(deadline):
            return all(
                tl.busy_until(lane) <= deadline
                for tl in timelines
                for lane in range(tl.channels)
            )

        # One step: the head's chain does not fit, and is left whole.
        deadline = start + step_bound
        assert ssd.background_compress(start, deadline) <= deadline
        assert lanes_end_by(deadline)
        assert not any(ssd.block_manager.reclaimable[ppa] for ppa in chain)
        # The chain's own bound: 8 reads, 7 compressions, 7 programs.
        chain_bound = 8 * timing.read_us + 7 * (
            timing.delta_compress_us + timing.program_us
        )
        assert ssd.settle_cost_bound(head) == chain_bound
        deadline = start + chain_bound
        assert ssd.background_compress(start, deadline) <= deadline
        assert lanes_end_by(deadline)
        assert all(ssd.block_manager.reclaimable[ppa] for ppa in chain)

    def test_a_chain_is_left_whole_one_microsecond_short_of_its_bound(self):
        """The admission bound is the chain's own — k + 2 reads (the
        reference among them), k + 1 compressions and programs — read off
        the one walk that also finds the chain to compress: a window one
        µs shorter than it leaves the head's chain whole, and spends its
        time on the pages behind it."""
        ssd, head = self.chain_head_first()
        device = ssd.device
        chain = [head] + list(ssd.index.older_versions(
            0, device.core.back_pointer[head], device.core.timestamp_us[head]
        ))
        timing = device.timing
        chain_bound = 8 * timing.read_us + 7 * (
            timing.delta_compress_us + timing.program_us
        )
        start = max(
            max(tl.busy_until(lane) for lane in range(tl.channels))
            for tl in (device.timelines, device.chip_timelines)
        )
        compressed = ssd.background_compressed
        assert ssd.background_compress(start, start + chain_bound - 1) > start
        assert ssd.background_compressed > compressed
        assert not any(ssd.block_manager.reclaimable[ppa] for ppa in chain)
