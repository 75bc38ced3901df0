import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import AddressError
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBMetadata
from repro.flash.timing import ChannelTimelines, FlashTiming


def test_default_costs_positive():
    t = FlashTiming()
    assert t.read_us < t.program_us < t.erase_us


def test_rejects_negative_costs():
    with pytest.raises(ValueError):
        FlashTiming(read_us=-1)


@pytest.mark.parametrize("value", [75.5, 75.0, True, None])
def test_rejects_non_integer_costs(value):
    """Every cost is integer microseconds: a flash op's latency sample
    goes into its histogram uncoerced."""
    with pytest.raises(ValueError):
        FlashTiming(read_us=value)


class TestChannelTimelines:
    def test_needs_channels(self):
        with pytest.raises(ValueError):
            ChannelTimelines(0)

    def test_schedule_on_idle_channel(self):
        tl = ChannelTimelines(2)
        assert tl.schedule(0, now_us=100, latency_us=50) == 150
        assert tl.busy_until(0) == 150

    def test_back_to_back_ops_queue(self):
        tl = ChannelTimelines(1)
        tl.schedule(0, 0, 100)
        # Second op at t=10 must wait for the first to finish.
        assert tl.schedule(0, 10, 100) == 200

    def test_channels_are_independent(self):
        tl = ChannelTimelines(2)
        tl.schedule(0, 0, 1000)
        assert tl.schedule(1, 0, 100) == 100

    def test_idle_gap_is_not_compressed(self):
        tl = ChannelTimelines(1)
        tl.schedule(0, 0, 10)
        # Arriving later than busy_until starts at arrival time.
        assert tl.schedule(0, 500, 10) == 510

    def test_earliest_free(self):
        tl = ChannelTimelines(3)
        tl.schedule(0, 0, 100)
        tl.schedule(1, 0, 50)
        channel, free_at = tl.earliest_free(now_us=0)
        assert channel == 2
        assert free_at == 0

    def test_all_idle_at(self):
        tl = ChannelTimelines(2)
        assert tl.all_idle_at(0)
        tl.schedule(0, 0, 100)
        assert not tl.all_idle_at(50)
        assert tl.all_idle_at(100)

    def test_bad_channel_rejected(self):
        tl = ChannelTimelines(1)
        with pytest.raises(AddressError):
            tl.schedule(1, 0, 10)

    def test_negative_latency_rejected(self):
        tl = ChannelTimelines(1)
        with pytest.raises(ValueError):
            tl.schedule(0, 0, -1)


class ReferenceTimelines:
    """The occupancy model, written for clarity not speed: an op starts at
    ``max(now, busy_until)``; the queue at an arrival holds every earlier
    op on the lane that completes after it."""

    def __init__(self, channels):
        self.busy_until = [0] * channels
        self.busy_us = [0] * channels
        self.ends = [[] for _ in range(channels)]
        self.max_depth = [0] * channels

    def schedule(self, channel, now_us, latency_us):
        end = max(now_us, self.busy_until[channel]) + latency_us
        self.busy_until[channel] = end
        self.busy_us[channel] += latency_us
        self.ends[channel] = [e for e in self.ends[channel] if e > now_us] + [end]
        self.max_depth[channel] = max(self.max_depth[channel], len(self.ends[channel]))
        return end

    def depth_at(self, channel, now_us):
        return sum(1 for e in self.ends[channel] if e > now_us)


@given(
    ops=st.lists(
        st.tuples(
            st.integers(-1, 3),  # channel: -1 and 3 are out of range
            st.integers(0, 40),  # arrival advance
            st.integers(-1, 60),  # latency: -1 is rejected
        ),
        max_size=120,
    )
)
@settings(max_examples=150, deadline=None)
def test_schedule_matches_reference_model(ops):
    channels = 3
    tl = ChannelTimelines(channels)
    ref = ReferenceTimelines(channels)
    now = 0
    for channel, advance, latency in ops:
        now += advance  # arrivals are monotonic, as the device's are
        if not 0 <= channel < channels:
            with pytest.raises(AddressError):
                tl.schedule(channel, now, max(latency, 0))
        elif latency < 0:
            with pytest.raises(ValueError):
                tl.schedule(channel, now, latency)
        else:
            assert tl.schedule(channel, now, latency) == ref.schedule(
                channel, now, latency
            )
        # A rejected op must leave no trace; an accepted one the same trace.
        for lane in range(channels):
            assert tl.busy_until(lane) == ref.busy_until[lane]
            assert tl.depth_at(lane, now) == ref.depth_at(lane, now)
        assert tl.busy_times() == ref.busy_us
        assert tl.max_depths() == ref.max_depth
    assert tl.total_busy_us() == sum(ref.busy_us)


# --- The flash ops' fused bookings against two ``schedule`` calls per op -----


def _device_ops(device, rng, count):
    """A seeded mix of reads (retry steps included), programs, erases and
    page copies on ``device``, with arrivals that sometimes step back (a
    GC cursor and a host request do not arrive in one order).  Yields
    ``(kind, args)`` after performing each op."""
    geo = device.geometry
    core = device.core
    ppb = geo.pages_per_block
    now = 0

    def open_blocks(exclude=None):
        return [
            pba for pba in range(geo.total_blocks)
            if core.write_pointer[pba] < ppb and pba != exclude
        ]

    def next_page(exclude=None):
        pba = rng.choice(open_blocks(exclude))
        return pba * ppb + core.write_pointer[pba]

    for _ in range(count):
        now = max(0, now + rng.randint(-200, 900))
        kind = rng.choice(("read", "read", "program", "program", "copy", "erase"))
        written = [p for p in range(core.total_pages) if core.state[p]]
        if kind in ("read", "copy") and not written:
            kind = "program"
        if kind == "program" and not open_blocks():
            kind = "erase"
        if kind == "copy":
            src = rng.choice(written)
            if not open_blocks(exclude=src // ppb):
                kind = "read"
        if kind == "read":
            ppa, step = rng.choice(written), rng.choice((0, 0, 1, 3))
            device.read_page(ppa, now, retry_step=step)
            yield kind, (ppa, now, step)
        elif kind == "program":
            ppa = next_page()
            device.program_page(ppa, b"x", OOBMetadata(lpa=ppa, back_pointer=-1,
                                                       timestamp_us=now), now)
            yield kind, (ppa, now)
        elif kind == "copy":
            step = rng.choice((0, 2, None))
            dst = next_page(exclude=src // ppb)
            device.copy_page(src, now, lambda: dst, step)
            yield kind, (src, dst, now, step)
        else:
            pba = rng.randrange(geo.total_blocks)
            device.erase_block(pba, now)
            yield kind, (pba, now)


def _book_reference(ref_channels, ref_chips, geo, timing, kind, args):
    """The same op as two ``schedule`` calls (one for an erase) on the
    reference model: the booking before the fused kernel."""
    def lanes(ppa):
        pba = ppa // geo.pages_per_block
        channel, chip = geo.chip_of_block(pba)
        return channel, channel * geo.chips_per_channel + chip

    def read(ppa, now, step):
        channel, chip = lanes(ppa)
        cell = ref_chips.schedule(chip, now, timing.read_us * (1 + step))
        return ref_channels.schedule(channel, cell, timing.bus_transfer_us)

    def program(ppa, now):
        channel, chip = lanes(ppa)
        bus = ref_channels.schedule(channel, now, timing.bus_transfer_us)
        return ref_chips.schedule(chip, bus, timing.program_us)

    if kind == "read":
        read(*args)
    elif kind == "program":
        program(*args)
    elif kind == "copy":
        src, dst, now, step = args
        program(dst, now if step is None else read(src, now, step))
    else:
        pba, now = args
        channel, chip = geo.chip_of_block(pba)
        ref_chips.schedule(
            channel * geo.chips_per_channel + chip, now, timing.erase_us
        )


@pytest.mark.parametrize(
    "chips_per_channel, bus_transfer_us",
    [(1, 0), (2, 0), (1, 35), (2, 35)],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fused_bookings_match_two_schedules_per_op(
    chips_per_channel, bus_transfer_us, seed
):
    timing = FlashTiming(bus_transfer_us=bus_transfer_us)
    geo = FlashGeometry(
        channels=2,
        chips_per_channel=chips_per_channel,
        planes_per_chip=1,
        blocks_per_plane=3,
        pages_per_block=4,
        page_size=512,
    )
    device = FlashDevice(geo, timing)
    ref_channels = ReferenceTimelines(geo.channels)
    ref_chips = ReferenceTimelines(geo.channels * chips_per_channel)
    rng = random.Random(seed)
    for kind, args in _device_ops(device, rng, 300):
        _book_reference(ref_channels, ref_chips, geo, timing, kind, args)
        for tl, ref in ((device.timelines, ref_channels),
                        (device.chip_timelines, ref_chips)):
            for lane in range(tl.channels):
                assert tl.busy_until(lane) == ref.busy_until[lane], (kind, args)
                assert list(tl.lane(lane).pending) == ref.ends[lane], (kind, args)
            assert tl.busy_times() == ref.busy_us
            assert tl.max_depths() == ref.max_depth
