"""Fault mechanics at the flash-device level: residue, raises, counters."""

import pytest

from repro.common.errors import (
    EraseFailureError,
    PowerCutError,
    ProgramFailureError,
    UncorrectableReadError,
)
from repro.faults.hooks import BURNED_PAGE, FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata, PageState


def make_device(plan):
    geometry = FlashGeometry(
        channels=2, blocks_per_plane=4, pages_per_block=4, page_size=16
    )
    return FlashDevice(geometry, fault_hooks=FaultHooks(plan))


def oob(lpa=0, ts=100):
    return OOBMetadata(lpa=lpa, back_pointer=NULL_PPA, timestamp_us=ts)


class TestTornProgram:
    def test_residue_is_half_a_page_under_a_torn_tag(self):
        plan = FaultPlan()
        plan.add_power_cut(at_op=1, torn=True)
        device = make_device(plan)
        with pytest.raises(PowerCutError) as excinfo:
            device.program_page(0, b"AAAABBBBCCCCDDDD", oob())
        assert excinfo.value.op_index == 1
        page = device.peek_page(0)
        assert page.state is PageState.PROGRAMMED
        assert not page.oob.intact
        assert page.data == b"AAAABBBB" + b"\x00" * 8
        # The op never committed as far as accounting is concerned...
        assert device.page_programs.value == 0
        # ...but the page itself is consumed: the write pointer advanced.
        assert device.core.write_pointer[0] == 1

    def test_clean_power_cut_leaves_no_residue(self):
        plan = FaultPlan()
        plan.add_power_cut(at_op=1, torn=False)
        device = make_device(plan)
        with pytest.raises(PowerCutError):
            device.program_page(0, b"x" * 16, oob())
        assert device.peek_page(0).state is PageState.ERASED
        assert device.core.write_pointer[0] == 0


class TestProgramFailure:
    def test_transient_failure_burns_the_page_but_the_block_survives(self):
        plan = FaultPlan()
        plan.add_program_failure(at_op=1)
        device = make_device(plan)
        with pytest.raises(ProgramFailureError) as excinfo:
            device.program_page(0, b"y" * 16, oob())
        assert not excinfo.value.permanent
        assert not device.core.failed[0]
        page = device.peek_page(0)
        assert page.state is PageState.PROGRAMMED
        assert not page.oob.intact
        # The next page of the same block still programs fine.
        device.program_page(1, b"z" * 16, oob())
        assert device.peek_page(1).oob.intact

    def test_permanent_failure_marks_the_block_bad(self):
        plan = FaultPlan()
        plan.add_program_failure(permanent=True, at_op=1)
        device = make_device(plan)
        with pytest.raises(ProgramFailureError) as excinfo:
            device.program_page(0, b"y" * 16, oob())
        assert excinfo.value.permanent
        assert device.core.failed[0]
        # Every later program to the failed block is refused by the media
        # itself, before any fault plan is consulted.
        with pytest.raises(ProgramFailureError):
            device.program_page(1, b"z" * 16, oob())

    def test_modeled_content_burn_uses_the_marker(self):
        plan = FaultPlan()
        plan.add_program_failure(at_op=1)
        device = make_device(plan)
        with pytest.raises(ProgramFailureError):
            device.program_page(0, None, oob())
        assert device.peek_page(0).data == BURNED_PAGE


class TestEraseAndRead:
    def test_erase_failure_marks_the_block_bad_and_sticks(self):
        plan = FaultPlan()
        plan.add_erase_failure(at_op=1)
        device = make_device(plan)
        with pytest.raises(EraseFailureError):
            device.erase_block(0)
        assert device.core.failed[0]
        # Grown-bad is media truth: later erases fail without the plan
        # (the device guard refuses before the hook is even consulted).
        with pytest.raises(EraseFailureError):
            device.erase_block(0)
        assert plan.ops_seen == 1

    def test_read_uncorrectable_is_raised_once(self):
        plan = FaultPlan()
        device = make_device(plan)
        device.program_page(0, b"k" * 16, oob())
        plan.add_read_error(every=1, max_fires=1)
        with pytest.raises(UncorrectableReadError):
            device.read_page(0)
        # One-shot spec: the retry succeeds and the data was never lost.
        device.read_page(0)
        assert device.core.data[0] == b"k" * 16

    def test_op_counter_spans_all_op_types(self):
        plan = FaultPlan()
        device = make_device(plan)
        device.program_page(0, b"a" * 16, oob())
        device.read_page(0)
        device.program_page(1, b"b" * 16, oob())
        device.peek_page(0)  # host-side tooling, not a flash op: no hook
        assert plan.ops_seen == 3
