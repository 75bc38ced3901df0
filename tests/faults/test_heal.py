"""Recoverable degraded mode: scrub-driven heal, dwell hysteresis, NVMe.

Degraded mode used to be exit-only-by-hand (``clear_degraded``).  With
the patrol scrubber the firmware heals itself: retire the grown-bad
blocks, dwell ``HEAL_DWELL_US`` with no new program/erase failures, and
re-admit writes — without flapping under sustained faults.
"""

import pytest

from repro.common.errors import DegradedModeError, ProgramFailureError
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import BaseSSD
from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.controller import NVMeController

from tests.conftest import make_regular_ssd

PAGE = b"payload".ljust(512, b"\0")
DWELL = BaseSSD.HEAL_DWELL_US


def make_healing_ssd(**overrides):
    plan = FaultPlan()
    params = dict(
        faults=FaultHooks(plan),
        patrol_scrub=True,
    )
    params.update(overrides)
    ssd = make_regular_ssd(**params)
    return ssd, plan


def degrade(ssd, plan):
    """Drive the device into degraded mode via program-retry exhaustion."""
    spec = plan.add_program_failure(every=1, max_fires=None)
    with pytest.raises(ProgramFailureError):
        ssd.write(0, PAGE)
    assert ssd.degraded_reason is not None
    return spec


def run_scrub(ssd, window_us=50_000):
    now = ssd.clock.now_us
    return ssd.scrubber.run_window(now, now + window_us)


class TestScrubDrivenHeal:
    def test_heal_after_dwell_restores_writes(self):
        ssd, plan = make_healing_ssd()
        spec = degrade(ssd, plan)
        spec.max_fires = spec.fires  # the media condition clears
        ssd.clock.advance(DWELL + 1)
        run_scrub(ssd)
        assert ssd.degraded_reason is None
        assert ssd.obs.metrics.counter("ftl.degraded.healed").value == 1
        ssd.write(1, PAGE)
        assert ssd.read(1)[0] == PAGE

    def test_heal_waits_out_the_dwell(self):
        ssd, plan = make_healing_ssd()
        spec = degrade(ssd, plan)
        spec.max_fires = spec.fires
        ssd.clock.advance(DWELL // 2)
        run_scrub(ssd)
        assert ssd.degraded_reason is not None  # dwell not yet served
        ssd.clock.advance(DWELL)
        run_scrub(ssd)
        assert ssd.degraded_reason is None

    def test_new_failures_restart_the_dwell(self):
        ssd, plan = make_healing_ssd()
        spec = degrade(ssd, plan)
        spec.max_fires = spec.fires
        ssd.clock.advance(DWELL - 1)
        # A background migration hits the media mid-dwell: the failure
        # counter moves, so the dwell must restart from here.
        ssd.program_failures += 1
        run_scrub(ssd)
        assert ssd.degraded_reason is not None
        ssd.clock.advance(DWELL // 2)
        run_scrub(ssd)
        assert ssd.degraded_reason is not None  # restarted dwell not served
        ssd.clock.advance(DWELL)
        run_scrub(ssd)
        assert ssd.degraded_reason is None

    def test_no_flapping_under_sustained_faults(self):
        ssd, plan = make_healing_ssd()
        degrade(ssd, plan)  # the fault stays armed: every program fails
        entered = ssd.obs.metrics.counter("ftl.degraded.entered")
        healed = ssd.obs.metrics.counter("ftl.degraded.healed")
        for _ in range(5):
            ssd.clock.advance(DWELL + 1)
            run_scrub(ssd)
            # Heal may succeed (no *new* failures: writes are refused in
            # degraded mode, so nothing programs) — but the next write
            # attempt immediately re-enters; the dwell then gates the
            # next heal, so entered/healed stay in lockstep, not a
            # runaway flap within one dwell period.
            if ssd.degraded_reason is None:
                with pytest.raises(ProgramFailureError):
                    ssd.write(0, PAGE)
                assert ssd.degraded_reason is not None
        assert entered.value == healed.value + (
            1 if ssd.degraded_reason is not None else 0
        )
        assert entered.value <= 6

    def test_reentry_after_manual_clear_still_heals_later(self):
        ssd, plan = make_healing_ssd()
        spec = degrade(ssd, plan)
        ssd.clear_degraded()
        with pytest.raises(ProgramFailureError):
            ssd.write(0, PAGE)  # fault still armed: re-enters immediately
        assert ssd.degraded_reason is not None
        assert ssd.obs.metrics.counter("ftl.degraded.entered").value == 2
        spec.max_fires = spec.fires
        ssd.clock.advance(DWELL + 1)
        run_scrub(ssd)
        assert ssd.degraded_reason is None
        ssd.write(2, PAGE)
        assert ssd.read(2)[0] == PAGE

    def test_pool_shrunk_below_capacity_never_heals(self):
        ssd, _plan = make_healing_ssd()
        bm = ssd.block_manager
        geo = ssd.device.geometry
        needed = -(-ssd.logical_pages // geo.pages_per_block)
        needed += ssd.config.gc_low_watermark
        to_retire = geo.total_blocks - needed + 1
        free = [
            pba
            for pba in range(geo.total_blocks)
            if bm.kind(pba) is BlockKind.FREE
        ]
        for pba in free[:to_retire]:
            ssd.device.core.failed[pba] = 1
            bm.claim_block(pba)  # out of the pool, then out of service
            bm.release_block(pba)
        with pytest.raises(DegradedModeError):
            ssd.write(1, PAGE)
        ssd.clock.advance(10 * DWELL)
        run_scrub(ssd)
        # Block.failed is media truth: no amount of scrubbing brings the
        # pool back above logical capacity.
        assert ssd.degraded_reason is not None

    def test_scrub_retires_condemned_blocks_before_healing(self):
        ssd, plan = make_healing_ssd()
        # A permanent bad page: the write is remapped and acked, the
        # block is condemned (sealed, Block.failed) but not yet retired.
        plan.add_program_failure(permanent=True, every=1, max_fires=1)
        ssd.write(0, PAGE)
        bad_pba = ssd.device.geometry.block_of_page(plan.fired[0].address)
        assert ssd.device.core.failed[bad_pba]
        ssd._enter_degraded("injected: media instability")
        ssd.clock.advance(DWELL + 1)
        run_scrub(ssd, window_us=500_000)
        assert ssd.block_manager.kind(bad_pba) is BlockKind.RETIRED
        assert ssd.obs.metrics.counter("scrub.blocks_retired").value == 1
        assert ssd.degraded_reason is None
        ssd.write(1, PAGE)
        assert ssd.read(1)[0] == PAGE
        assert ssd.read(0)[0] == PAGE  # data survived the retirement


class TestNVMeHealTransitions:
    def _controller(self):
        ssd, plan = make_healing_ssd()
        return NVMeController(ssd), ssd, plan

    def test_degraded_read_only_then_success_after_heal(self):
        ctrl, ssd, plan = self._controller()
        assert ctrl.submit(NVMeCommand(Opcode.WRITE, slba=0)).ok
        spec = plan.add_program_failure(every=1, max_fires=None)
        fail = ctrl.submit(NVMeCommand(Opcode.WRITE, slba=1))
        assert fail.status is StatusCode.MEDIA_WRITE_FAULT
        blocked = ctrl.submit(NVMeCommand(Opcode.WRITE, slba=2))
        assert blocked.status is StatusCode.DEGRADED_READ_ONLY
        assert ctrl.submit(NVMeCommand(Opcode.READ, slba=0)).ok
        # Media stabilises; the scrubber heals after the dwell.
        spec.max_fires = spec.fires
        ssd.clock.advance(DWELL + 1)
        run_scrub(ssd)
        write = ctrl.submit(NVMeCommand(Opcode.WRITE, slba=2))
        assert write.status is StatusCode.SUCCESS
        trim = ctrl.submit(NVMeCommand(Opcode.DSM, slba=0))
        assert trim.status is StatusCode.SUCCESS
