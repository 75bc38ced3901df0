"""Latency model and per-channel occupancy timelines.

The model is analytic rather than a full discrete-event simulation: each
channel keeps a ``busy_until`` time, an operation on a channel starts at
``max(now, busy_until)`` and occupies the channel for its latency.  This
captures the two effects the paper's evaluation depends on — GC stalls
lengthening I/O response times, and channel-level parallelism speeding up
TimeKits queries — without a request-queue simulator.
"""

from collections import deque
from dataclasses import dataclass

from repro.common.errors import AddressError


@dataclass(frozen=True)
class FlashTiming:
    """Operation costs in microseconds.

    Defaults are typical MLC NAND figures (and are the ``C_read``,
    ``C_write``, ``C_erase``, ``C_delta`` constants of the paper's
    Equation 1).  ``delta_compress_us`` models one page-sized LZF
    delta-compression on the controller's embedded cores.
    """

    read_us: int = 75
    program_us: int = 750
    erase_us: int = 3800
    delta_compress_us: int = 120
    delta_decompress_us: int = 60
    #: Channel-bus time to move one page between controller and chip.
    #: The default of 0 folds the bus into the cell ops (the simple
    #: single-resource model); set it > 0 together with
    #: ``chips_per_channel > 1`` to study die-level parallelism, where
    #: one chip's cell operation overlaps another chip's bus transfer.
    bus_transfer_us: int = 0

    def __post_init__(self):
        for name in (
            "read_us",
            "program_us",
            "erase_us",
            "delta_compress_us",
            "delta_decompress_us",
            "bus_transfer_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)


class ChannelTimelines:
    """Tracks when each flash channel becomes free."""

    def __init__(self, channels):
        if channels <= 0:
            raise ValueError("need at least one channel")
        self._busy_until = [0] * channels
        self._busy_us = [0] * channels
        #: Completion times of operations still outstanding relative to
        #: the latest arrival — the per-lane command queue the async
        #: core's depth gauges read.  Entries are pruned lazily on the
        #: next arrival, so memory stays bounded by the burst size.
        self._pending = [deque() for _ in range(channels)]
        self._max_depth = [0] * channels

    @property
    def channels(self):
        return len(self._busy_until)

    def busy_until(self, channel):
        self._check(channel)
        return self._busy_until[channel]

    def total_busy_us(self):
        """Occupied time summed over all channels."""
        return sum(self._busy_us)

    def busy_times(self):
        """Per-channel occupied time, as a list indexed by channel."""
        return list(self._busy_us)

    def schedule(self, channel, now_us, latency_us):
        """Occupy ``channel`` for ``latency_us`` starting no earlier than now.

        Returns the completion time.
        """
        if not 0 <= channel < len(self._busy_until):
            self._check(channel)
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        start = self._busy_until[channel]
        if not start > now_us:  # max(now_us, busy): ties keep now_us
            start = now_us
        end = start + latency_us
        self._busy_until[channel] = end
        self._busy_us[channel] += latency_us
        pending = self._pending[channel]
        while pending and pending[0] <= now_us:
            pending.popleft()
        pending.append(end)
        depth = len(pending)
        if depth > self._max_depth[channel]:
            self._max_depth[channel] = depth
        return end

    def depth_at(self, channel, now_us):
        """Operations still queued or in flight on ``channel`` at
        ``now_us`` (arrival-time view: completions at exactly ``now_us``
        no longer count)."""
        self._check(channel)
        return sum(1 for end in self._pending[channel] if end > now_us)

    def max_depth(self, channel):
        """Deepest the channel's command queue has ever been."""
        self._check(channel)
        return self._max_depth[channel]

    def max_depths(self):
        """Per-channel high-water queue depth, indexed by channel."""
        return list(self._max_depth)

    def earliest_free(self, now_us):
        """(channel, free_at) pair for the channel that frees up first."""
        channel = min(range(self.channels), key=lambda c: self._busy_until[c])
        return channel, max(now_us, self._busy_until[channel])

    def all_idle_at(self, now_us):
        """True when no channel is occupied past ``now_us``."""
        return all(t <= now_us for t in self._busy_until)

    def _check(self, channel):
        if not 0 <= channel < len(self._busy_until):
            raise AddressError("channel %r out of range" % channel)
