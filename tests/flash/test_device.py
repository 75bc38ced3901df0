import random

import pytest

from repro.common.errors import FlashStateError
from repro.common.units import SECOND_US
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.device import FlashDevice
from repro.flash.page import NULL_PPA, OOBMetadata, PageState
from repro.flash.timing import FlashTiming
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import SSDConfig
from repro.security.flashguard import FlashGuardSSD
from repro.timessd.config import ContentMode
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.verify import DeviceAuditor

from tests.conftest import make_timessd, small_geometry
from tests.ftl.test_scrub import tame_reliability


@pytest.fixture
def device():
    return FlashDevice(small_geometry(), FlashTiming())


def oob(lpa=0):
    return OOBMetadata(lpa=lpa, back_pointer=NULL_PPA, timestamp_us=0)


def test_program_then_read_roundtrip(device):
    complete = device.program_page(0, b"hello", oob(lpa=9), now_us=0)
    assert complete == device.timing.program_us
    read_complete, _corrected = device.read_page(0, now_us=complete)
    assert device.core.data[0] == b"hello"
    assert device.core.lpa[0] == 9
    assert read_complete == complete + device.timing.read_us


def test_counters_track_operations(device):
    device.program_page(0, b"x", oob())
    device.read_page(0)
    device.erase_block(0)
    counts = (device.page_programs, device.page_reads, device.block_erases)
    assert [count.value for count in counts] == [1, 1, 1]


def test_program_out_of_order_within_block_rejected(device):
    with pytest.raises(FlashStateError):
        device.program_page(1, b"x", oob())  # page 0 not yet programmed


def test_erase_enables_reprogramming(device):
    device.program_page(0, b"x", oob())
    device.erase_block(0)
    device.program_page(0, b"y", oob())
    device.read_page(0)
    assert device.core.data[0] == b"y"


def test_read_erased_page_rejected(device):
    with pytest.raises(FlashStateError):
        device.read_page(0)


def test_ops_on_same_channel_serialize(device):
    geo = device.geometry
    # Block 0 and block `channels` share channel 0.
    pba_a, pba_b = 0, geo.channels
    ppa_a = geo.first_page_of_block(pba_a)
    ppa_b = geo.first_page_of_block(pba_b)
    t1 = device.program_page(ppa_a, b"a", oob(), now_us=0)
    t2 = device.program_page(ppa_b, b"b", oob(), now_us=0)
    assert t2 == t1 + device.timing.program_us


def test_ops_on_distinct_channels_overlap(device):
    geo = device.geometry
    ppa_a = geo.first_page_of_block(0)  # channel 0
    ppa_b = geo.first_page_of_block(1)  # channel 1
    t1 = device.program_page(ppa_a, b"a", oob(), now_us=0)
    t2 = device.program_page(ppa_b, b"b", oob(), now_us=0)
    assert t1 == t2 == device.timing.program_us


def test_peek_page_has_no_cost(device):
    device.program_page(0, b"x", oob())
    before = device.page_reads.value
    page = device.peek_page(0)
    assert page.state is PageState.PROGRAMMED
    assert device.page_reads.value == before
    for name in ("state", "data", "oob", "programmed_us"):  # a read-only view
        with pytest.raises(AttributeError):
            setattr(page, name, None)


def test_block_erase_counts_roundtrip(device):
    device.program_page(0, b"x", oob())
    device.erase_block(0)
    counts = device.block_erase_counts()
    assert counts[0] == 1
    assert sum(counts) == 1


def test_firmware_never_builds_a_page_view(monkeypatch):
    """``peek_page`` is for tests and tooling: every firmware path — GC,
    idle compression, retention expiry, scrub, loss accounting, fsck,
    recovery, the FlashGuard comparator — reads the columns."""

    def no_views(self, ppa):
        raise AssertionError("firmware built a Page view of PPA %d" % ppa)

    monkeypatch.setattr(FlashDevice, "peek_page", no_views)
    plan = FaultPlan(seed=5)
    ssd = make_timessd(
        content_mode=ContentMode.REAL,
        patrol_scrub=True,
        reliability=tame_reliability(),
        checkpoint_interval_blocks=2,
        faults=FaultHooks(plan),
    )
    geo = ssd.device.geometry
    bm = ssd.block_manager
    rng = random.Random(19)
    working_set = 500

    def write_one(target):
        lpa = rng.randrange(working_set)
        target.write(lpa, bytes([rng.randrange(256)]) * geo.page_size)
        return lpa

    def counter(name):
        return ssd.metrics_snapshot()["counters"].get(name, 0)

    def delta_blocks():
        return sum(
            bm.kind(pba) is BlockKind.DELTA for pba in range(geo.total_blocks)
        )

    # Foreground GC: back-to-back writes leave no idle window to hide in.
    while ssd.gc_runs == 0:
        write_one(ssd)
    # Idle windows: background compression, then the patrol scrub.
    for _ in range(60):
        ssd.clock.advance(50_000)
        write_one(ssd)
    assert ssd.background_compressed > 0
    assert counter("scrub.patrol_reads") > 0
    # A retention shrink that erases the expired segments' delta blocks.
    assert delta_blocks() > 0
    ssd.clock.advance(3 * SECOND_US)
    while ssd._shrink_retention(ssd.clock.now_us) is not None:
        pass
    assert delta_blocks() == 0
    assert DeviceAuditor(ssd).audit().clean
    # A GC round over a valid page no retry step can read.
    victim = bm.select_victim("greedy", ssd.clock.now_us, BlockKind.DATA)
    lost = next(ppa for ppa in geo.pages_of_block(victim) if bm.is_valid(ppa))
    plan.add_read_error(address={lost}, every=1, max_fires=None)
    ssd.relocate_block(victim, ssd.clock.now_us)
    assert list(ssd.lost_lpas.values()) == [lost]
    simulate_power_loss(ssd)
    assert rebuild_from_flash(ssd)["checkpoint_seq"] is not None

    # FlashGuard: one reclaim that moves valid and retained pages alike.
    guard = FlashGuardSSD(SSDConfig(geometry=small_geometry()))
    while guard.gc_runs == 0:
        guard.read(write_one(guard))
    assert guard.retained_count > 0


@pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "pure-python"])
def test_batched_scan_oob_equals_per_block_scans(device, monkeypatch, numpy_on):
    """``scan_oob(pbas)`` verifies every requested block's seals in one
    batch; each scan it yields, and what it counts, must be what
    ``scan_block_oob`` gives block by block."""
    from repro.common.errors import AddressError
    from repro.flash import core as flash_core
    from repro.flash.device import BlockOOBScan

    if not numpy_on:
        monkeypatch.setattr(flash_core, "HAVE_NUMPY", False)
    geo = device.geometry
    ppb = geo.pages_per_block

    def program(pba, count, torn_at=()):
        for offset in range(count):
            meta = OOBMetadata(
                lpa=pba * 100 + offset, back_pointer=NULL_PPA, timestamp_us=7 * offset
            )
            if offset in torn_at:
                meta = meta.as_torn()
            device.program_page(geo.first_page_of_block(pba) + offset, b"x", meta)

    program(0, ppb, torn_at={3})  # full, one torn page
    program(1, 5)  # partial
    program(3, 2)  # grown bad after two programs
    device.core.failed[3] = 1
    device.core.failed[4] = 1  # grown bad while erased: still reported
    request = [3, 0, 2, 1, 4]  # block 2 is erased: skipped

    def counted(take):
        counters = [
            device.obs.metrics.counter(name)
            for name in ("flash.scan.blocks", "flash.scan.pages")
        ]
        before = [counter.value for counter in counters]
        scans = take()
        return scans, {
            counter.name: counter.value - was
            for counter, was in zip(counters, before)
        }

    one_by_one, counted_one_by_one = counted(
        lambda: [device.scan_block_oob(pba) for pba in request if pba != 2]
    )
    batched, counted_batched = counted(lambda: list(device.scan_oob(request)))
    assert [scan.pba for scan in batched] == [3, 0, 1, 4]
    for got, expected in zip(batched, one_by_one):
        for slot in BlockOOBScan.__slots__:
            assert getattr(got, slot) == getattr(expected, slot), (got.pba, slot)
    assert counted_batched == counted_one_by_one == {
        "flash.scan.blocks": 4,
        "flash.scan.pages": ppb + 5 + 2,
    }
    assert list(batched[1].intact) == [1, 1, 1, 0] + [1] * (ppb - 4)
    assert [scan.failed for scan in batched] == [True, False, False, True]
    assert [scan.pba for scan in device.scan_oob()] == [0, 1, 3, 4]
    with pytest.raises(AddressError):
        list(device.scan_oob([0, geo.total_blocks]))
