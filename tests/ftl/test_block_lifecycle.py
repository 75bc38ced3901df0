"""One block lifecycle (DESIGN.md): every per-page firmware mark is a
``BlockManager`` column, and an erase, a retirement or a power cut
leaves no mark set on the pages it covers.

The reference model is the rule itself: after every
``release_block`` (the tail of every erase, and the mount's retirement
of a block that failed or wore out) and every power cut, the covered
slice of ``valid``, ``reclaimable`` and ``at_risk`` is all zero.  The
op sequence is random but seeded, and runs on a device where every mark
is in use: aging media under patrol scrub (at-risk marks), TimeSSD
retention (PRT marks), checkpoints (blocks reused as translation
blocks), erase failures (retirements) and power cuts.
"""

import random

import pytest

from repro.common.errors import AddressError, UncorrectableReadError
from repro.common.units import HOUR_US
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.device import FlashDevice
from repro.ftl.block_manager import BlockKind, BlockManager
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.verify import DeviceAuditor

from tests.conftest import AGING, make_timessd, small_geometry

COLUMNS = ("valid", "reclaimable", "at_risk")


def marks_of_block(bm, pba):
    """``{column: bytes}`` of ``pba``'s pages in every mark column."""
    ppb = bm.device.geometry.pages_per_block
    first = pba * ppb
    return {name: bytes(getattr(bm, name)[first:first + ppb]) for name in COLUMNS}


def spy_on_the_lifecycle(monkeypatch):
    """Check every release (and so every retirement) as it happens;
    returns the per-call log of which columns held a mark just before
    it."""
    log = []
    original = BlockManager.release_block

    def checked(bm, pba):
        before = marks_of_block(bm, pba)
        original(bm, pba)
        after = marks_of_block(bm, pba)
        assert not any(any(column) for column in after.values()), (pba, after)
        log.append({c for c, column in before.items() if any(column)})

    monkeypatch.setattr(BlockManager, "release_block", checked)
    return log


def test_every_erase_retirement_and_power_cut_forgets_the_marks(monkeypatch):
    log = spy_on_the_lifecycle(monkeypatch)
    plan = FaultPlan(seed=3)
    plan.add_erase_failure(every=40, max_fires=3)
    ssd = make_timessd(
        op_ratio=0.3,  # room for the retired blocks
        reliability=AGING,
        patrol_scrub=True,
        checkpoint_interval_blocks=2,
        faults=FaultHooks(plan),
    )
    rng = random.Random(11)
    working_set = 300
    for lpa in range(working_set):
        ssd.write(lpa)
        ssd.clock.advance(1500)
    power_cuts = retired_at_mount = 0
    for step in range(1, 1201):
        lpa = rng.randrange(working_set)
        roll = rng.random()
        if roll < 0.3:
            try:
                ssd.read(lpa)
            except UncorrectableReadError:
                pass
        elif roll < 0.35:
            ssd.trim(lpa)
        else:
            ssd.write(lpa)
        ssd.clock.advance(rng.choice((1500, 15_000)))
        if step % 300 == 0:
            ssd.clock.advance(10 * HOUR_US)
        if step % 400 == 0:
            simulate_power_loss(ssd)
            bm = ssd.block_manager
            assert not any(any(getattr(bm, name)) for name in COLUMNS)
            retired_at_mount += rebuild_from_flash(ssd)["retired_blocks"]
            power_cuts += 1
    assert DeviceAuditor(ssd).audit().clean
    # Not vacuous: releases found PRT and at-risk marks to clear (never
    # a valid one: a block is released only once it holds no valid
    # page), and the lifecycle retired blocks at release and at mount.
    assert set().union(*log) == {"reclaimable", "at_risk"}
    assert ssd.block_manager.retired_blocks > 0
    assert retired_at_mount > 0
    assert power_cuts == 3


def test_retiring_a_block_in_service_forgets_its_marks():
    bm = BlockManager(FlashDevice(small_geometry()))
    ppa = bm.allocate_page_keyed("k", None)
    pba = ppa // bm.device.geometry.pages_per_block
    bm.mark_valid(ppa)
    bm.mark_reclaimable(ppa + 1)
    bm.at_risk[ppa + 2] = 1
    bm.device.core.failed[pba] = 1
    with pytest.raises(AddressError):  # a valid page: not releasable yet
        bm.release_block(pba)
    bm.invalidate_page(ppa)
    bm.release_block(pba)
    assert bm.kind(pba) is BlockKind.RETIRED and bm.retired_blocks == 1
    assert marks_of_block(bm, pba) == dict.fromkeys(COLUMNS, bytes(16))


@pytest.mark.parametrize("column", COLUMNS)
def test_a_column_is_one_byte_per_page_for_the_managers_life(column):
    # TimeTravelIndex holds the PRT column itself, so a release must
    # clear it in place, never swap in a new one.
    geo = small_geometry()
    bm = BlockManager(FlashDevice(geo))
    marks = getattr(bm, column)
    assert len(marks) == geo.total_pages
    bm.release_block(bm.allocate_page_keyed("k", None) // geo.pages_per_block)
    assert getattr(bm, column) is marks
