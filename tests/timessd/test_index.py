import pytest

from repro.flash.page import NULL_PPA
from repro.timessd.delta import DeltaRecord
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss

from tests.conftest import make_timessd


@pytest.fixture
def ssd():
    return make_timessd()


def write_versions(ssd, lpa, n, gap_us=100):
    """Write n versions; returns the PPAs each version landed on."""
    ppas = []
    for _ in range(n):
        ssd.write(lpa)
        ppas.append(ssd.mapping.lookup(lpa))
        ssd.clock.advance(gap_us)
    return ppas


class TestPRT:
    def test_mark_and_check(self, ssd):
        bm = ssd.block_manager
        assert not bm.reclaimable[5]
        assert bm.mark_reclaimable(5)
        assert bm.reclaimable[5]
        assert not bm.mark_reclaimable(5)  # second mark is a no-op

    def test_hop_never_enters_a_marked_page_across_a_power_cut(self, ssd):
        # The index reads the block manager's PRT column, including the
        # fresh one a power cut builds.
        ppas = write_versions(ssd, 7, 3)
        simulate_power_loss(ssd)
        rebuild_from_flash(ssd)
        core = ssd.device.core
        head = ppas[-1]

        def below_head():
            return list(
                ssd.index.older_versions(
                    7, core.back_pointer[head], core.timestamp_us[head]
                )
            )

        assert below_head() == [ppas[1], ppas[0]]
        ssd.block_manager.mark_reclaimable(ppas[1])
        assert below_head() == []


class TestDataChain:
    """The hop rule (:meth:`TimeTravelIndex.older_versions`, a chain head
    its first hop) and what the timed walk, ``version_chain``, bills."""

    def test_walk_links_all_versions(self, ssd):
        ppas = write_versions(ssd, 7, 4)
        hops = list(ssd.index.older_versions(7, ppas[-1]))
        assert hops == list(reversed(ppas))
        stamps = [ssd.device.core.timestamp_us[ppa] for ppa in hops]
        assert stamps == sorted(stamps, reverse=True)

    def test_walk_null_head_is_empty(self, ssd):
        assert list(ssd.index.older_versions(7, NULL_PPA)) == []

    def test_walk_charges_read_time(self, ssd):
        write_versions(ssd, 7, 3)
        t0 = ssd.clock.now_us
        versions, complete = ssd.version_chain(7, t0)
        assert len(versions) == 3
        assert complete >= t0 + 3 * ssd.device.timing.read_us

    def test_walk_stops_at_recycled_page(self, ssd):
        # Write versions spanning several blocks, then erase the block
        # holding the oldest ones: the walk must stop at the break.
        geo = ssd.device.geometry
        ppas = write_versions(ssd, 7, geo.pages_per_block + 4)
        old_block = geo.block_of_page(ppas[0])
        assert geo.block_of_page(ppas[-1]) != old_block
        for ppa in geo.pages_of_block(old_block):
            ssd.block_manager.invalidate_page(ppa)
        ssd.device.erase_block(old_block)
        hops = list(ssd.index.older_versions(7, ppas[-1]))
        # Reachable prefix: newest versions up to (excluding) the first
        # hop that lands in the erased block.
        expected = []
        for ppa in reversed(ppas):
            if geo.block_of_page(ppa) == old_block:
                break
            expected.append(ppa)
        assert hops == expected

    def test_walk_with_erased_head_is_empty(self, ssd):
        ppas = write_versions(ssd, 7, 2)
        geo = ssd.device.geometry
        pba = geo.block_of_page(ppas[-1])
        for ppa in geo.pages_of_block(pba):
            ssd.block_manager.invalidate_page(ppa)
        ssd.device.erase_block(pba)
        assert list(ssd.index.older_versions(7, ppas[-1])) == []

    def test_walk_rejects_mismatched_head(self, ssd):
        write_versions(ssd, 7, 1)
        ssd.write(8)
        other_ppa = ssd.mapping.lookup(8)
        assert list(ssd.index.older_versions(7, other_ppa)) == []


    @pytest.mark.parametrize("mark", ["compressed", "expired"])
    def test_a_trimmed_lpas_marked_head_is_no_data_page_version(self, ssd, mark):
        # The head is the chain's first hop, so the rule that refuses a
        # PRT-marked page one hop down refuses it as the head too: the
        # page is neither read nor answered.
        ppas = write_versions(ssd, 7, 3)
        ssd.trim(7)
        head = ppas[-1]
        if mark == "compressed":
            ssd.compress_or_lose(head, ssd.clock.now_us)
        else:
            ssd.expire_page(head)
        assert ssd.block_manager.reclaimable[head]
        assert list(ssd.index.older_versions(7, head)) == []
        delta_pages = {
            record.flash_ppa
            for record in ssd.index.live_deltas(ssd.index.delta_head(7))
            if record.flash_ppa is not None
        }
        reads = ssd.device.page_reads.value
        versions, _t = ssd.version_chain(7)
        assert ssd.device.page_reads.value == reads + len(delta_pages)
        assert "data-page" not in {v.source for v in versions}
        assert versions[0].source == "deleted"
        if mark == "compressed":  # the version lives on as a delta
            assert len(versions) == 4


class TestDeltaChain:
    """The delta-chain half of ``version_chain``, on hand-made records
    (stamp-only walks: the modelled payloads are never opened)."""

    def make_record(self, lpa, ts, back=None, flash_ppa=None, dropped=False):
        record = DeltaRecord(
            lpa=lpa,
            version_ts=ts,
            ref_ts=ts + 1,
            payload=("tok", ts),
            size_bytes=10,
            segment_id=0,
            back=back,
        )
        record.flash_ppa = flash_ppa
        record.dropped = dropped
        return record

    @staticmethod
    def walk(ssd, start_us):
        versions, complete = ssd.version_chain(1, start_us, payloads=False)
        return [v.timestamp_us for v in versions], complete

    def test_walk_follows_back_links(self, ssd):
        oldest = self.make_record(1, 10)
        newest = self.make_record(1, 20, back=oldest)
        ssd.index.set_delta_head(1, newest)
        assert self.walk(ssd, 0)[0] == [20, 10]

    def test_walk_stops_at_dropped_record(self, ssd):
        dead = self.make_record(1, 10, dropped=True)
        live = self.make_record(1, 20, back=dead)
        ssd.index.set_delta_head(1, live)
        assert self.walk(ssd, 0)[0] == [20]

    def test_ram_records_cost_nothing(self, ssd):
        ssd.index.set_delta_head(1, self.make_record(1, 10))
        assert self.walk(ssd, 1000) == ([10], 1000)

    def test_flushed_records_cost_one_read_per_page(self, ssd):
        # Two records on the same delta page: one read total.
        ssd.write(0)  # occupy ppa so reads are legal
        ppa = ssd.mapping.lookup(0)
        oldest = self.make_record(1, 10, flash_ppa=ppa)
        newest = self.make_record(1, 20, back=oldest, flash_ppa=ppa)
        ssd.index.set_delta_head(1, newest)
        t0 = ssd.clock.now_us
        assert self.walk(ssd, t0) == ([20, 10], t0 + ssd.device.timing.read_us)

    def test_prune_dropped_head(self, ssd):
        dead_new = self.make_record(1, 30, dropped=True)
        ssd.index.set_delta_head(1, dead_new)
        assert ssd.index.prune_dropped_head(1) is None
        assert ssd.index.delta_head(1) is None
