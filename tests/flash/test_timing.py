import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import AddressError
from repro.flash.timing import ChannelTimelines, FlashTiming


def test_default_costs_positive():
    t = FlashTiming()
    assert t.read_us < t.program_us < t.erase_us


def test_rejects_negative_costs():
    with pytest.raises(ValueError):
        FlashTiming(read_us=-1)


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
