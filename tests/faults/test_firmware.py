"""Firmware fault handling: retry/remap, retirement, degraded mode, NVMe."""

import pytest

from repro.common.errors import DegradedModeError, ProgramFailureError
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.ftl.block_manager import BlockKind
from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.controller import NVMeController

from tests.conftest import make_regular_ssd

PAGE = b"payload".ljust(512, b"\0")


def make_faulty_ssd(**overrides):
    plan = FaultPlan()
    ssd = make_regular_ssd(faults=FaultHooks(plan), **overrides)
    return ssd, plan


class TestProgramRetry:
    def test_transient_failure_is_remapped_and_absorbed(self):
        ssd, plan = make_faulty_ssd()
        plan.add_program_failure(every=1, max_fires=1)
        ssd.write(0, PAGE)
        assert ssd.program_failures == 1
        assert ssd.read(0)[0] == PAGE
        assert ssd.degraded_reason is None

    def test_retry_budget_exhaustion_escapes_and_degrades(self):
        ssd, plan = make_faulty_ssd()
        plan.add_program_failure(every=1, max_fires=None)
        with pytest.raises(ProgramFailureError):
            ssd.write(0, PAGE)
        assert ssd.degraded_reason is not None
        with pytest.raises(DegradedModeError):
            ssd.write(1, PAGE)
        with pytest.raises(DegradedModeError):
            ssd.trim(0)
        # Reads keep working in degraded mode; the failed write was
        # never acknowledged, so LPA 0 correctly reads as unmapped.
        assert ssd.read(0)[0] is None

    def test_clear_degraded_restores_service(self):
        ssd, plan = make_faulty_ssd()
        spec = plan.add_program_failure(every=1, max_fires=None)
        with pytest.raises(ProgramFailureError):
            ssd.write(0, PAGE)
        spec.max_fires = spec.fires  # the media condition clears
        ssd.clear_degraded()
        ssd.write(0, PAGE)
        assert ssd.read(0)[0] == PAGE
        assert ssd.degraded_reason is None


class TestBadBlockRetirement:
    def test_permanent_failure_condemns_then_retirement_on_release(self):
        ssd, plan = make_faulty_ssd()
        plan.add_program_failure(permanent=True, every=1, max_fires=1)
        ssd.write(0, PAGE)  # remapped onto a fresh block, still acked
        assert ssd.program_failures == 1
        assert ssd.read(0)[0] == PAGE
        bad_pba = ssd.device.geometry.block_of_page(plan.fired[0].address)
        assert ssd.device.core.failed[bad_pba]
        # Condemned: no longer an append point, but GC prey despite
        # being partial.
        assert bad_pba not in ssd.block_manager.active_blocks()
        assert bad_pba in set(ssd.block_manager.sealed_blocks())
        # Reclaiming it retires it instead of refreshing the free pool.
        ssd.erase_and_release(bad_pba, ssd.clock.now_us)
        assert ssd.erase_failures == 1
        assert ssd.block_manager.retired_blocks == 1
        assert ssd.block_manager.kind(bad_pba) is BlockKind.RETIRED

    def test_erase_failure_during_gc_retires_the_victim(self):
        ssd, plan = make_faulty_ssd()
        plan.add_erase_failure(every=1, max_fires=1)
        working_set = ssd.logical_pages // 4
        writes = 0
        while ssd.gc_runs == 0:
            ssd.write(writes % working_set, PAGE)
            writes += 1
            assert writes < 20_000, "GC never triggered"
        assert ssd.erase_failures == 1
        assert ssd.block_manager.retired_blocks == 1
        # One retired block leaves ample headroom: still serving writes.
        ssd.write(0, PAGE)
        assert ssd.read(0)[0] == PAGE

    def test_pool_shrinkage_enters_read_only_degraded_mode(self):
        ssd, _plan = make_faulty_ssd()
        ssd.write(0, PAGE)
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
        assert to_retire <= len(free)
        for pba in free[:to_retire]:
            ssd.device.core.failed[pba] = 1
            bm.claim_block(pba)  # out of the pool, then out of service
            bm.release_block(pba)
        with pytest.raises(DegradedModeError):
            ssd.write(1, PAGE)
        # Acked data stays readable; the condition survives a clear
        # because the pool is still too small (media truth).
        assert ssd.read(0)[0] == PAGE
        ssd.clear_degraded()
        with pytest.raises(DegradedModeError):
            ssd.write(1, PAGE)


class TestNVMeStatusMapping:
    def _controller(self):
        plan = FaultPlan()
        ssd = make_regular_ssd(faults=FaultHooks(plan))
        return NVMeController(ssd), ssd, plan

    def test_write_fault_maps_to_media_write_fault(self):
        ctrl, _ssd, plan = self._controller()
        plan.add_program_failure(every=1, max_fires=None)
        completion = ctrl.submit(NVMeCommand(Opcode.WRITE, slba=0))
        assert completion.status is StatusCode.MEDIA_WRITE_FAULT

    def test_degraded_mode_maps_to_read_only_status(self):
        ctrl, ssd, _plan = self._controller()
        assert ctrl.submit(NVMeCommand(Opcode.WRITE, slba=0)).ok
        ssd._enter_degraded("injected by test")
        write = ctrl.submit(NVMeCommand(Opcode.WRITE, slba=1))
        assert write.status is StatusCode.DEGRADED_READ_ONLY
        trim = ctrl.submit(NVMeCommand(Opcode.DSM, slba=0))
        assert trim.status is StatusCode.DEGRADED_READ_ONLY
        assert ctrl.submit(NVMeCommand(Opcode.READ, slba=0)).ok

    def test_uncorrectable_read_maps_to_media_status(self):
        ctrl, _ssd, plan = self._controller()
        assert ctrl.submit(NVMeCommand(Opcode.WRITE, slba=0)).ok
        plan.add_read_error(every=1, max_fires=1)
        completion = ctrl.submit(NVMeCommand(Opcode.READ, slba=0))
        assert completion.status is StatusCode.MEDIA_UNRECOVERED_READ
        # The spec was one-shot; the data itself was never lost.
        assert ctrl.submit(NVMeCommand(Opcode.READ, slba=0)).ok
