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
        # Simulated time is integer microseconds, and the device records
        # each op's latency sample (completion minus start) as is: an
        # int only while every cost is one.
        for name, value in vars(self).items():
            if type(value) is not int:
                raise ValueError("%s must be an int, got %r" % (name, value))
            if value < 0:
                raise ValueError("%s must be non-negative" % name)

    # --- Closed forms: every formula firmware admits or bills work by ------
    # One bus term per page read or programmed, as ``FlashDevice`` books
    # them; docs/PERFORMANCE.md lists each with its test row.

    def chain_bound_us(self, k):
        """Compressing a retained page over ``k`` older versions, at most:
        k + 2 reads (the chain, the reference) and k + 1 compressions,
        each of whose records may flush a delta page."""
        bus = self.bus_transfer_us
        return (k + 2) * (self.read_us + bus) + (k + 1) * (
            self.delta_compress_us + bus + self.program_us
        )

    def idle_compress_floor_us(self):
        """The idle compressor settles no page once less than three reads,
        a compression and a program remain."""
        return self.chain_bound_us(0) + self.read_us + self.bus_transfer_us

    def gc_round_bound_us(self, pages_per_block):
        """A GC round: every page read, compressed and programmed; the erase."""
        per_page = self.read_us + 2 * self.bus_transfer_us + self.program_us
        return pages_per_block * (per_page + self.delta_compress_us) + self.erase_us

    def scrub_step_bound_us(self, retry_limit, settle_us=0):
        """A scrub step: the ladder's last sense (a failed one books
        nothing), then a valid page's program or the stale-page rule's
        ``settle_us``, and never less than a chain of one."""
        ladder = self.read_us * (1 + retry_limit) + self.bus_transfer_us
        return ladder + max(self.chain_bound_us(0), settle_us)

    def translation_us(self, reads, writes):
        """The DFTL lump of pending translation I/O, bus-free (DESIGN.md)."""
        return reads * self.read_us + writes * self.program_us

    def gc_overhead_us(self, reads, writes, erases, deltas):
        """Equation 1's numerator: C_read, C_write, C_erase, C_delta."""
        return (
            reads * self.read_us + writes * self.program_us
            + erases * self.erase_us + deltas * self.delta_compress_us
        )

    def gc_overhead_limit_us(self, threshold):
        """Equation 1's right-hand side, ``TH * C_write``."""
        return threshold * self.program_us


class Lane:
    """One channel's or chip's occupancy.

    ``pending`` holds the completion times of operations still
    outstanding relative to the latest arrival — the lane's command
    queue, which the async core's depth gauges read.  Entries are pruned
    lazily on the next arrival, so memory stays bounded by the burst
    size.  A booking starts no earlier than the lane's last completion,
    so the deque ascends and its last entry is when the lane frees up
    (0 for a lane never booked).
    """

    __slots__ = ("pending", "busy_us", "max_depth")

    def __init__(self):
        self.pending = deque()
        self.busy_us = 0
        self.max_depth = 0

    @property
    def free_at(self):
        return self.pending[-1] if self.pending else 0


class ChannelTimelines:
    """Tracks when each flash channel becomes free."""

    def __init__(self, channels):
        if channels <= 0:
            raise ValueError("need at least one channel")
        self._lanes = [Lane() for _ in range(channels)]

    @property
    def channels(self):
        return len(self._lanes)

    def lane(self, channel):
        """The :class:`Lane` of ``channel`` (what the flash ops book)."""
        self._check(channel)
        return self._lanes[channel]

    def busy_until(self, channel):
        self._check(channel)
        return self._lanes[channel].free_at

    def total_busy_us(self):
        """Occupied time summed over all channels."""
        return sum(lane.busy_us for lane in self._lanes)

    def busy_times(self):
        """Per-channel occupied time, as a list indexed by channel."""
        return [lane.busy_us for lane in self._lanes]

    def schedule(self, channel, now_us, latency_us):
        """Occupy ``channel`` for ``latency_us`` starting no earlier than now.

        Returns the completion time.
        """
        if not 0 <= channel < len(self._lanes):
            self._check(channel)
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        return book(self._lanes[channel], now_us, latency_us)

    def depth_at(self, channel, now_us):
        """Operations still queued or in flight on ``channel`` at
        ``now_us`` (arrival-time view: completions at exactly ``now_us``
        no longer count)."""
        self._check(channel)
        return sum(1 for end in self._lanes[channel].pending if end > now_us)

    def max_depths(self):
        """Per-channel high-water queue depth, indexed by channel."""
        return [lane.max_depth for lane in self._lanes]

    def earliest_free(self, now_us):
        """(channel, free_at) pair for the channel that frees up first."""
        free_at = [lane.free_at for lane in self._lanes]
        channel = min(range(self.channels), key=free_at.__getitem__)
        return channel, max(now_us, free_at[channel])

    def all_idle_at(self, now_us):
        """True when no channel is occupied past ``now_us``."""
        return all(lane.free_at <= now_us for lane in self._lanes)

    def _check(self, channel):
        if not 0 <= channel < len(self._lanes):
            raise AddressError("channel %r out of range" % channel)


# --- The flash ops' bookings ---------------------------------------------------
#
# A flash op occupies a chip lane and a channel lane, one after the other.
# These functions are :meth:`ChannelTimelines.schedule` on a :class:`Lane`
# without its argument checks (the device tabulates each block's lanes
# from the geometry, and its latencies come from a validated
# :class:`FlashTiming`), and :func:`book_then` makes an op's two bookings
# in one call.  Each booking is exactly one ``schedule``: the same start
# (``max(now, free_at)``, ties keep ``now``), ``busy_us``, pending
# completions and ``max_depth`` — a zero-latency booking still queues.


def book(lane, now_us, latency_us):
    """Occupy ``lane`` for ``latency_us`` from no earlier than ``now_us``;
    returns the completion time."""
    pending = lane.pending
    if pending and pending[-1] > now_us:
        end = pending[-1] + latency_us
        while pending[0] <= now_us:
            pending.popleft()
        pending.append(end)
        if len(pending) > lane.max_depth:
            lane.max_depth = len(pending)
    else:  # idle at now_us: nothing is outstanding, the queue is this op
        end = now_us + latency_us
        pending.clear()
        pending.append(end)
        if not lane.max_depth:
            lane.max_depth = 1
    lane.busy_us += latency_us
    return end


def book_then(first, first_us, second, second_us, now_us):
    """:func:`book` on lane ``first`` at ``now_us``, then on lane
    ``second`` at the first booking's completion; returns the second's
    completion."""
    pending = first.pending
    if pending and pending[-1] > now_us:
        mid = pending[-1] + first_us
        while pending[0] <= now_us:
            pending.popleft()
        pending.append(mid)
        if len(pending) > first.max_depth:
            first.max_depth = len(pending)
    else:
        mid = now_us + first_us
        pending.clear()
        pending.append(mid)
        if not first.max_depth:
            first.max_depth = 1
    first.busy_us += first_us
    pending = second.pending
    if pending and pending[-1] > mid:
        end = pending[-1] + second_us
        while pending[0] <= mid:
            pending.popleft()
        pending.append(end)
        if len(pending) > second.max_depth:
            second.max_depth = len(pending)
    else:
        end = mid + second_us
        pending.clear()
        pending.append(end)
        if not second.max_depth:
            second.max_depth = 1
    second.busy_us += second_us
    return end
