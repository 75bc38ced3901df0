"""Media faults composed with power cuts, on both devices.

The mount rebuilds the firmware tables from flash, so the device that
comes up must be the one that lost power — grown-bad and worn-out
blocks included.  Whether a block is in service is one rule,
``BlockManager.in_service`` (the ``failed`` column, or an erase count at
the endurance budget), applied after every erase and at mount: a block
out of service that still holds a mapped page stays a DATA block for GC
to empty, one that holds none is retired.
"""

import pytest

from repro.common.errors import AddressError, DegradedModeError, DeviceFullError
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl import recovery as ftl_recovery
from repro.ftl.block_manager import BlockKind, StreamId
from repro.timessd import recovery as timessd_recovery
from repro.timessd.ssd import TimeSSD

from tests.conftest import make_regular_ssd, make_timessd

MAKERS = [make_regular_ssd, make_timessd]
WORKING_SET = 40


def power_cycle(ssd):
    recovery = timessd_recovery if isinstance(ssd, TimeSSD) else ftl_recovery
    recovery.simulate_power_loss(ssd)
    return recovery.rebuild_from_flash(ssd)


def churn(ssd, acked, until, gap_us=300, limit=20_000):
    """Overwrite the working set until ``until()`` holds; ``acked`` keeps
    each LPA's last acknowledged data."""
    n = len(acked)
    while not until():
        assert n < limit, "the fault never fired"
        lpa = n % WORKING_SET
        ssd.write(lpa, b"v%d" % n)
        acked[lpa] = b"v%d" % n
        ssd.clock.advance(gap_us)
        n += 1


def mapped_blocks(ssd):
    geo = ssd.device.geometry
    return {
        geo.block_of_page(ssd.mapping.lookup(lpa))
        for lpa in ssd.mapping.mapped_lpas()
    }


@pytest.mark.parametrize("maker", MAKERS)
def test_a_grown_bad_block_keeps_its_acked_pages_across_a_cut(maker):
    plan = FaultPlan()
    ssd = maker(faults=FaultHooks(plan))
    geo = ssd.device.geometry
    acked = {}
    churn(ssd, acked, lambda: len(acked) == 8)
    bad = geo.block_of_page(ssd.mapping.lookup(0))
    plan.add_program_failure(
        permanent=True, every=1, address=set(geo.pages_of_block(bad))
    )
    churn(ssd, acked, lambda: plan.fired)
    assert ssd.device.core.failed[bad] and bad in mapped_blocks(ssd)

    power_cycle(ssd)
    assert {lpa: ssd.read(lpa)[0] for lpa in acked} == acked
    bm = ssd.block_manager
    assert bm.kind(bad) is BlockKind.DATA and bm.retired_blocks == 0
    assert bad not in bm.active_blocks()
    # A later reclaim empties it and retires it, as on the live device.
    ssd.relocate_block(bad, ssd.clock.now_us)
    assert bm.kind(bad) is BlockKind.RETIRED and bm.retired_blocks == 1
    assert {lpa: ssd.read(lpa)[0] for lpa in acked} == acked


@pytest.mark.parametrize("maker", MAKERS)
def test_a_page_naming_an_lpa_past_the_device_stops_the_mount(maker):
    """An intact user page whose OOB names an LPA the device does not
    have is refused at mount with ``AddressError`` before any L2P entry
    is written: the sweep's head columns are indexed by LPA, so the
    check is theirs."""
    ssd = maker()
    for lpa in range(WORKING_SET):
        ssd.write(lpa)
        ssd.clock.advance(300)
    stray = ssd.block_manager.allocate_page(StreamId.USER)
    oob = OOBMetadata(ssd.logical_pages, NULL_PPA, ssd.clock.now_us)
    ssd.device.program_page(stray, None, oob)
    assert ssd.device.core.intact_at(stray)

    with pytest.raises(AddressError, match="LPA %d," % ssd.logical_pages):
        power_cycle(ssd)
    assert ssd.mapping.mapped_count() == 0
    assert not any(ssd.block_manager.valid)


@pytest.mark.parametrize("maker", MAKERS)
def test_a_victim_whose_erase_failed_stays_retired_across_a_cut(maker):
    plan = FaultPlan()
    ssd = maker(faults=FaultHooks(plan))
    plan.add_erase_failure(every=1, max_fires=1)
    acked = {}
    churn(ssd, acked, lambda: ssd.erase_failures)
    victim = plan.fired[0].address
    bm = ssd.block_manager
    assert bm.kind(victim) is BlockKind.RETIRED and bm.retired_blocks == 1
    assert ssd.device.core.write_pointer[victim]  # its stale pages remain

    stats = power_cycle(ssd)
    bm = ssd.block_manager
    assert bm.kind(victim) is BlockKind.RETIRED
    assert bm.retired_blocks == stats["retired_blocks"] == 1
    assert victim not in mapped_blocks(ssd)
    assert {lpa: ssd.read(lpa)[0] for lpa in acked} == acked


@pytest.mark.parametrize("maker", MAKERS)
def test_a_copy_outranks_its_original_in_a_victim_whose_erase_failed(maker):
    """A reclaim copies the victim's valid pages, then its erase fails:
    each copy carries its original's stamp.  The mount sweeps a block out
    of service last and keeps the first of two equal stamps, so the copy
    on healthy media is the head and the victim, holding none, is
    retired."""
    plan = FaultPlan()
    ssd = maker(faults=FaultHooks(plan))
    geo = ssd.device.geometry
    acked = {}
    for lpa in range(2 * WORKING_SET):
        ssd.write(lpa, b"v%d" % lpa)
        acked[lpa] = b"v%d" % lpa
        ssd.clock.advance(300)
    victim = geo.block_of_page(ssd.mapping.lookup(0))
    bm = ssd.block_manager
    assert bm.valid_count(victim) == geo.pages_per_block
    plan.add_erase_failure(every=1, address={victim})
    ssd.relocate_block(victim, ssd.clock.now_us)
    assert plan.fired and bm.kind(victim) is BlockKind.RETIRED

    power_cycle(ssd)
    bm = ssd.block_manager
    assert bm.kind(victim) is BlockKind.RETIRED and bm.retired_blocks == 1
    assert victim not in mapped_blocks(ssd)
    assert {lpa: ssd.read(lpa)[0] for lpa in acked} == acked


@pytest.mark.parametrize("maker", MAKERS)
def test_worn_out_blocks_stay_retired_and_the_device_read_only(maker):
    budget = 3
    ssd = maker(block_endurance_cycles=budget)
    acked = {}
    with pytest.raises(DeviceFullError):  # DegradedModeError is one
        churn(ssd, acked, lambda: False, gap_us=3000)
    bm = ssd.block_manager
    assert bm.retired_blocks > 0
    with pytest.raises(DegradedModeError):
        ssd.ensure_writable()
    before = bm.retired_blocks, bm.free_block_count

    power_cycle(ssd)
    bm = ssd.block_manager
    assert (bm.retired_blocks, bm.free_block_count) == before
    with pytest.raises(DegradedModeError):
        ssd.ensure_writable()
    erase_count = ssd.device.core.erase_count
    for pba in range(ssd.device.geometry.total_blocks):
        if erase_count[pba] >= budget:
            assert bm.kind(pba) is BlockKind.RETIRED, pba
    assert {lpa: ssd.read(lpa)[0] for lpa in acked} == acked
