"""Patrol scrubber + refresh engine unit tests (ISSUE 7 tentpole).

The crash-safety side of scrub lives in tests/faults/test_torture_scrub.py
and the heal policy in tests/faults/test_heal.py; these tests pin the
scrubber's mechanics: the read-retry ladder and its at-risk feedback,
patrol ordering, and the three refresh dispositions (valid migration,
retained chain compression, retention-expired skip).
"""

import pytest

from repro.common.errors import UncorrectableReadError
from repro.common.units import SECOND_US
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.reliability import FlashReliability
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import SSDConfig
from repro.security import FlashGuardSSD
from repro.timessd.config import ContentMode
from repro.timessd.verify import DeviceAuditor

from tests.conftest import (
    AGING,
    age,
    fill_and_churn,
    make_regular_ssd,
    make_timessd,
    small_geometry,
)

PAGE_SIZE = 512
PAGE = b"scrub-me".ljust(PAGE_SIZE, b"\0")


def tame_reliability(**overrides):
    """An enabled engine that essentially never flips a bit."""
    params = dict(raw_bit_error_rate=1e-12, ecc_correctable_bits=40)
    params.update(overrides)
    return FlashReliability(**params)


class TestReadRetryLadder:
    def test_ladder_rescues_a_marginal_read(self):
        # ~33 expected raw errors against an 8-bit budget: step 0 always
        # fails, step 1 (BER x0.1, ~3 errors) recovers.
        ssd = make_regular_ssd(
            reliability=FlashReliability(
                raw_bit_error_rate=8e-3,
                ecc_correctable_bits=8,
                retry_ber_factor=0.1,
                seed=0xA11,
            ),
            patrol_scrub=True,
        )
        ssd.write(3, PAGE)
        data, _ = ssd.read(3)
        assert data == PAGE
        metrics = ssd.obs.metrics
        assert metrics.counter("reliability.retry_reads").value >= 1
        assert metrics.counter("reliability.retry_exhausted").value == 0
        assert metrics.histogram("reliability.retry_depth").count >= 1
        # A read that needed the ladder is at-risk by definition.
        assert ssd.scrubber.at_risk_backlog() >= 1

    def test_error_surfaces_only_after_the_ladder_is_exhausted(self):
        # The retry factor barely helps: every step stays far over budget.
        ssd = make_regular_ssd(
            reliability=FlashReliability(
                raw_bit_error_rate=5e-2,
                ecc_correctable_bits=8,
                retry_ber_factor=0.9,
                seed=0xA11,
            ),
            patrol_scrub=True,
        )
        ssd.write(3, PAGE)
        with pytest.raises(UncorrectableReadError):
            ssd.read(3)
        metrics = ssd.obs.metrics
        assert metrics.counter("reliability.retry_exhausted").value == 1
        assert (
            metrics.counter("reliability.retry_reads").value
            == ssd.config.read_retry_limit
        )

    def test_disabled_engine_bypasses_the_ladder(self):
        ssd = make_regular_ssd()  # no reliability model at all
        ssd.write(3, PAGE)
        assert ssd.read(3)[0] == PAGE
        counters = ssd.obs.metrics.snapshot()["counters"]
        assert counters.get("reliability.retry_reads", 0) == 0


class TestObserveRead:
    def make(self):
        # Budget 40, risk fraction 0.5 -> watermark at 20 corrected bits.
        return make_timessd(
            reliability=tame_reliability(), patrol_scrub=True
        ).scrubber

    def test_watermark_gates_the_queue(self):
        scrubber = self.make()
        scrubber.observe_read(7, corrected_bits=19)
        assert scrubber.at_risk_backlog() == 0
        scrubber.observe_read(7, corrected_bits=20)
        assert scrubber.at_risk_backlog() == 1

    def test_any_retry_queues_even_a_clean_correction(self):
        scrubber = self.make()
        scrubber.observe_read(9, corrected_bits=0, retry_step=1)
        assert scrubber.at_risk_backlog() == 1

    def test_duplicates_are_not_requeued(self):
        scrubber = self.make()
        for _ in range(3):
            scrubber.observe_read(7, corrected_bits=25)
        assert scrubber.at_risk_backlog() == 1
        assert (
            scrubber._ssd.obs.metrics.counter("scrub.at_risk_queued").value
            == 1
        )


class TestAnEraseForgetsTheQueue:
    """The at-risk mark is a block-manager column an erase clears: a page
    queued before its block was reclaimed is dropped from the FIFO when
    it reaches the front, at no cost to the window's page budget."""

    def test_a_page_erased_before_its_turn_costs_no_budget(self):
        ssd = make_timessd(
            reliability=tame_reliability(),
            patrol_scrub=True,
            scrub_pages_per_run=1,
        )
        for lpa in range(160):
            ssd.write(lpa, PAGE)
        first, second = ssd.block_manager.sealed_blocks(BlockKind.DATA)[:2]
        geo = ssd.device.geometry
        erased = geo.first_page_of_block(first)
        queued = geo.first_page_of_block(second)
        scrubber = ssd.scrubber
        scrubber.observe_read(erased, corrected_bits=25)
        scrubber.observe_read(queued, corrected_bits=25)
        assert scrubber.at_risk_backlog() == 2
        ssd.relocate_block(first, ssd.clock.now_us)
        assert not ssd.block_manager.at_risk[erased]
        assert scrubber.at_risk_backlog() == 1
        now = ssd.clock.now_us
        scrubber.run_window(now, now + SECOND_US)
        # The one-page budget went to the page still at risk.
        assert ssd.obs.metrics.counter("scrub.refreshed_valid").value == 1
        assert not ssd.block_manager.valid[queued]
        assert scrubber.at_risk_backlog() == 0

    def test_a_checkpoint_block_reusing_a_queued_page_is_never_refreshed(self):
        # Aging + patrol scrub + checkpoints together: a PPA queued at
        # risk whose block was erased and reopened as a checkpoint block
        # was force-refreshed as a data page (LPA -2), raising
        # AddressError out of the idle window.
        ssd = make_timessd(
            reliability=AGING, patrol_scrub=True, checkpoint_interval_blocks=2
        )
        fill_and_churn(ssd, 400, 1200)
        age(ssd, working_set=400)
        metrics = ssd.obs.metrics
        assert metrics.counter("recovery.checkpoint.pages").value > 0
        assert metrics.counter("scrub.refreshed_valid").value > 0
        assert DeviceAuditor(ssd).audit().clean


class TestPatrolOrder:
    def _sealed_ssd(self):
        ssd = make_timessd(reliability=tame_reliability(), patrol_scrub=True)
        # Allocation stripes across the 4 channels' active blocks, so it
        # takes a few blocks' worth of writes before any block seals.
        for lpa in range(160):
            ssd.write(lpa % 80, PAGE)
            ssd.clock.advance(1000)
        return ssd

    def test_patrol_is_oldest_programmed_first(self):
        ssd = self._sealed_ssd()
        order = ssd.scrubber._patrol_order()
        assert len(order) >= 2
        last_program_us = ssd.device.core.last_program_us
        assert order == sorted(
            order, key=lambda pba: (last_program_us[pba], pba)
        )

    def test_cursor_rotates_the_sweep(self):
        ssd = self._sealed_ssd()
        scrubber = ssd.scrubber
        order = scrubber._patrol_order()
        scrubber._patrol_cursor = 1
        assert scrubber._rotate(order) == order[1:] + order[:1]
        scrubber._patrol_cursor = len(order)  # wraps
        assert scrubber._rotate(order) == order

    def test_run_patrols_inside_the_window_only(self):
        ssd = self._sealed_ssd()
        now = ssd.clock.now_us
        reads = ssd.obs.metrics.counter("scrub.patrol_reads")
        # A window too small for even one ladder read: no work admitted.
        ssd.scrubber.run_window(now, now + 10)
        assert reads.value == 0
        end = ssd.scrubber.run_window(now, now + SECOND_US)
        assert 0 < reads.value <= ssd.config.scrub_pages_per_run
        assert end <= now + SECOND_US


class TestRefreshDispositions:
    def test_valid_page_refresh_migrates_and_marks_the_old_copy(self):
        ssd = make_timessd(patrol_scrub=True)
        ssd.write(5, PAGE)
        head = ssd.mapping.lookup(5)
        ts = ssd.device.peek_page(head).oob.timestamp_us
        ssd.scrubber._scrub_page(head, ssd.clock.now_us, force_refresh=True)
        new_head = ssd.mapping.lookup(5)
        assert new_head != head
        assert ssd.block_manager.is_valid(new_head)
        assert not ssd.block_manager.is_valid(head)
        # Same version, not retained history: the stale copy is
        # PRT-marked so it can never grow a self-referential delta.
        assert ssd.block_manager.reclaimable[head]
        # OOB (and hence the version timestamp) carries over unchanged.
        assert ssd.device.peek_page(new_head).oob.timestamp_us == ts
        assert ssd.read(5)[0] == PAGE
        assert ssd.obs.metrics.counter("scrub.refreshed_valid").value == 1

    def test_retained_refresh_preserves_the_version_chain(self):
        ssd = make_timessd(patrol_scrub=True)
        old_payload = b"v1".ljust(PAGE_SIZE, b"\x11")
        ssd.write(5, old_payload)
        old_ppa = ssd.mapping.lookup(5)
        ssd.clock.advance(2000)
        ssd.write(5, b"v2".ljust(PAGE_SIZE, b"\x22"))
        before, _ = ssd.version_chain(5)
        stamps = [v.timestamp_us for v in before]
        assert len(stamps) == 2
        ssd.scrubber._scrub_page(
            old_ppa, ssd.clock.now_us, force_refresh=True
        )
        assert (
            ssd.obs.metrics.counter("scrub.refreshed_retained").value == 1
        )
        # The aged flash page is now redundant with the delta chain...
        assert ssd.block_manager.reclaimable[old_ppa]
        # ...and the chain still serves the same timestamps and bytes.
        after, _ = ssd.version_chain(5)
        assert [v.timestamp_us for v in after] == stamps
        assert after[-1].data == old_payload

    def test_expired_page_is_skipped_not_refreshed(self):
        ssd = make_timessd(patrol_scrub=True)
        ssd.write(5, PAGE)
        old_ppa = ssd.mapping.lookup(5)
        for lpa in range(100, 164):
            ssd.write(lpa, PAGE)
        # Overwriting lpa 5 records its old block's bloom group into the
        # active segment; only overwrites record, so the segment chain
        # rotates on the *next* overwrite after the segment max age —
        # one whose old page sits in a different flash block, so the old
        # version's group lands in no newer filter.
        ssd.write(5, b"v2".ljust(PAGE_SIZE, b"\x22"))
        geo = ssd.device.geometry
        block_a = geo.block_of_page(old_ppa)
        victim = next(
            lpa
            for lpa in range(100, 164)
            if geo.block_of_page(ssd.mapping.lookup(lpa)) != block_a
        )
        ssd.clock.advance(SECOND_US)
        ssd.write(victim, b"v2".ljust(PAGE_SIZE, b"\x33"))
        ssd.clock.advance(10 * SECOND_US)
        while ssd.retention.shrink() is not None:
            pass
        assert ssd.blooms.find_segment(old_ppa) is None
        ssd.scrubber._scrub_page(
            old_ppa, ssd.clock.now_us, force_refresh=True
        )
        metrics = ssd.obs.metrics
        assert metrics.counter("scrub.skipped_expired").value == 1
        assert metrics.counter("scrub.refreshed_retained").value == 0
        assert ssd.block_manager.reclaimable[old_ppa]


    def test_retained_page_whose_chain_is_lost_is_given_up(self):
        # The at-risk page reads fine, but the version below it is gone
        # through the full ladder: compressing the chain cannot finish,
        # so the page's version is dropped and the loss accounted, just
        # as GC's reclaim would — not left on the aging page for later.
        plan = FaultPlan()
        ssd = make_timessd(
            patrol_scrub=True,
            reliability=tame_reliability(),
            faults=FaultHooks(plan),
        )
        for version in (b"v0", b"v1", b"v2"):
            ssd.write(5, version.ljust(PAGE_SIZE, b"\x11"))
            ssd.clock.advance(2000)
        _head, at_risk, lost = ssd.index.older_versions(
            5, ssd.mapping.lookup(5), ssd.clock.now_us
        )
        plan.add_read_error(every=1, address={lost}, max_fires=None)
        ssd.scrubber._scrub_page(at_risk, ssd.clock.now_us, force_refresh=True)
        counters = ssd.obs.metrics.snapshot()["counters"]
        assert counters["timessd.compress.lost_versions"] == 1
        assert counters["scrub.skipped_expired"] == 1
        assert counters.get("scrub.uncorrectable", 0) == 0
        assert counters.get("scrub.refreshed_retained", 0) == 0
        assert ssd.block_manager.reclaimable[at_risk]

    def test_flashguard_retained_page_is_copied(self):
        # FlashGuard settles a stale page as its GC does: a retained
        # page at risk is copied to a fresh page, its version following.
        ssd = FlashGuardSSD(
            SSDConfig(
                geometry=small_geometry(),
                patrol_scrub=True,
                reliability=tame_reliability(),
            )
        )
        ssd.write(5, b"plaintext")
        t_clean = ssd.clock.now_us
        ssd.clock.advance(10)
        ssd.read(5)
        ssd.write(5, b"cipher")
        (old_ppa,) = ssd._retained_by_ppa
        ssd.scrubber.observe_read(old_ppa, corrected_bits=40)
        programs = ssd.device.page_programs.value
        now = ssd.clock.now_us
        ssd.scrubber.run_window(now, now + 10 * SECOND_US)
        metrics = ssd.obs.metrics
        assert metrics.counter("scrub.refreshed_retained").value == 1
        assert ssd.device.page_programs.value == programs + 1
        assert old_ppa not in ssd._retained_by_ppa
        restored, _ = ssd.recover_lpas([5], t_clean)
        assert restored == {5: b"plaintext"}


class TestScrubTouchesOnlyWhatItRefreshes:
    def test_an_uncorrectable_patrol_read_touches_no_flash(self):
        plan = FaultPlan()
        ssd = make_regular_ssd(
            faults=FaultHooks(plan),
            patrol_scrub=True,
            reliability=tame_reliability(),
        )
        geo = ssd.device.geometry
        lpas = range(2 * geo.channels * geo.pages_per_block)
        for lpa in lpas:
            ssd.write(lpa, PAGE)
        plan.add_read_error(
            every=1, address={ssd.mapping.lookup(0)}, max_fires=None
        )
        device = ssd.device
        erases, programs = device.block_erases.value, device.page_programs.value
        now = ssd.clock.now_us
        ssd.scrubber.run_window(now, now + 10 * SECOND_US)
        assert ssd.obs.metrics.counter("scrub.uncorrectable").value >= 1
        # Scrub accounts the loss and moves on: the lost page's block
        # still holds its neighbours, so nothing is erased or rewritten.
        assert device.block_erases.value == erases
        assert device.page_programs.value == programs
        for lpa in lpas[1:]:
            assert ssd.read(lpa)[0] == PAGE

    def test_a_scrub_window_draws_nothing_from_the_device_rng(self):
        # REAL content: the modeled codec draws its compression ratio
        # from the device RNG by design, so only the real one can show
        # that scrub itself (patrol order, refresh dispatch) draws none.
        ssd = make_timessd(
            patrol_scrub=True,
            reliability=tame_reliability(),
            content_mode=ContentMode.REAL,
        )
        for lpa in range(80):
            ssd.write(lpa, PAGE)
        retained = ssd.mapping.lookup(5)
        for lpa in range(80):
            ssd.write(lpa, b"v2".ljust(PAGE_SIZE, b"\x22"))
            ssd.clock.advance(1000)
        ssd.scrubber.observe_read(retained, corrected_bits=40)
        state = ssd._rng.getstate()
        now = ssd.clock.now_us
        ssd.scrubber.run_window(now, now + 10 * SECOND_US)
        metrics = ssd.obs.metrics
        assert metrics.counter("scrub.patrol_reads").value > 0
        assert metrics.counter("scrub.refreshed_retained").value == 1
        assert ssd._rng.getstate() == state
