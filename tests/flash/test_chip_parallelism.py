"""Die-level parallelism: chip cell time overlaps channel bus time."""

import pytest

from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.flash.timing import FlashTiming


def oob(lpa=0):
    return OOBMetadata(lpa=lpa, back_pointer=NULL_PPA, timestamp_us=0)


def multi_chip_device(chips=2, bus_us=40):
    geometry = FlashGeometry(
        channels=2, chips_per_channel=chips, blocks_per_plane=8, pages_per_block=8
    )
    return FlashDevice(geometry, FlashTiming(bus_transfer_us=bus_us))


def blocks_on(device, channel, chip):
    geo = device.geometry
    return [
        pba
        for pba in range(geo.total_blocks)
        if geo.chip_of_block(pba) == (channel, chip)
    ]


def test_default_model_unchanged():
    """bus=0, one chip per channel: identical to the single-resource model."""
    device = FlashDevice(
        FlashGeometry(channels=2, blocks_per_plane=8, pages_per_block=8)
    )
    t1 = device.program_page(0, b"a", oob(), now_us=0)
    assert t1 == device.timing.program_us
    complete, _corrected = device.read_page(0, now_us=t1)
    assert complete == t1 + device.timing.read_us


def test_programs_on_sibling_chips_overlap():
    device = multi_chip_device()
    timing = device.timing
    geo = device.geometry
    block_a = blocks_on(device, 0, 0)[0]
    block_b = blocks_on(device, 0, 1)[0]
    t_a = device.program_page(geo.first_page_of_block(block_a), b"a", oob(), 0)
    t_b = device.program_page(geo.first_page_of_block(block_b), b"b", oob(), 0)
    # Second transfer waits for the first (shared bus), but its cell
    # program overlaps chip A's — far better than full serialization.
    assert t_a == timing.bus_transfer_us + timing.program_us
    assert t_b == 2 * timing.bus_transfer_us + timing.program_us
    assert t_b < t_a + timing.program_us


def test_programs_on_same_chip_serialize():
    device = multi_chip_device()
    timing = device.timing
    geo = device.geometry
    block = blocks_on(device, 0, 0)[0]
    first = geo.first_page_of_block(block)
    t1 = device.program_page(first, b"a", oob(), 0)
    t2 = device.program_page(first + 1, b"b", oob(), 0)
    assert t2 >= t1 + timing.program_us


def test_erase_leaves_channel_free():
    device = multi_chip_device()
    geo = device.geometry
    block_a = blocks_on(device, 0, 0)[0]
    block_b = blocks_on(device, 0, 1)[0]
    device.program_page(geo.first_page_of_block(block_a), b"a", oob(), 0)
    erase_done = device.erase_block(block_a, now_us=10_000)
    # While chip 0 erases, chip 1 on the same channel reads freely.
    device.program_page(geo.first_page_of_block(block_b), b"b", oob(), 0)
    complete, _corrected = device.read_page(
        geo.first_page_of_block(block_b), now_us=10_000
    )
    assert complete < erase_done


def test_reads_pipeline_across_chips():
    device = multi_chip_device(bus_us=40)
    timing = device.timing
    geo = device.geometry
    pages = []
    for chip in (0, 1):
        block = blocks_on(device, 0, chip)[0]
        ppa = geo.first_page_of_block(block)
        device.program_page(ppa, b"x", oob(), 0)
        pages.append(ppa)
    start = 100_000
    t1 = device.read_page(pages[0], start)[0]
    t2 = device.read_page(pages[1], start)[0]
    serialized = start + 2 * (timing.read_us + timing.bus_transfer_us)
    assert max(t1, t2) < serialized  # cell sense overlapped


@pytest.mark.parametrize("chips", [1, 2, 3])
def test_every_block_occupies_the_lanes_geometry_says(chips):
    """The device tabulates each block's lanes once; an erase (chip only)
    and a program (channel, then chip) must land on exactly the lanes
    ``FlashGeometry`` derives for the block, and on no other."""
    device = multi_chip_device(chips=chips, bus_us=5)
    geo = device.geometry
    timing = device.timing
    for pba in range(geo.total_blocks):
        channel, chip = geo.chip_of_block(pba)
        assert channel == geo.channel_of_block(pba)
        lane = channel * geo.chips_per_channel + chip
        bus_before = device.timelines.busy_times()
        chip_before = device.chip_timelines.busy_times()
        device.program_page(geo.first_page_of_block(pba), b"d", oob(), 0)
        device.erase_block(pba, 0)
        bus_after = device.timelines.busy_times()
        chip_after = device.chip_timelines.busy_times()
        for c in range(geo.channels):
            moved = timing.bus_transfer_us if c == channel else 0
            assert bus_after[c] - bus_before[c] == moved
        for l in range(geo.channels * geo.chips_per_channel):
            moved = timing.program_us + timing.erase_us if l == lane else 0
            assert chip_after[l] - chip_before[l] == moved


def test_read_result_is_a_named_value():
    """A read returns ``(complete_us, corrected_bits)`` and no copy of the
    page: the reader takes the bytes and OOB fields from the columns."""
    device = multi_chip_device()
    device.program_page(0, b"a", oob(3), now_us=0)
    timing = device.timing
    result = device.read_page(0, now_us=5_000)
    assert result == (5_000 + timing.read_us + timing.bus_transfer_us, 0)
    assert type(result) is tuple
    assert (device.core.data[0], device.core.oob_at(0)) == (b"a", oob(3))
