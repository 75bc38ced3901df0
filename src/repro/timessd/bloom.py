"""Bloom filters recording page-invalidation times (paper §3.5).

A naive per-page invalidation-timestamp table for a 1 TB SSD would need
1 GB of RAM, so TimeSSD instead keeps a chain of bloom filters, each
recording the (group-granular) physical page addresses invalidated during
one time segment.  The segments are recycled oldest-first, which is how
the retention window shrinks.

Guarantees (mirrored by tests):

* no false negatives — a recorded group is always found while its filter
  lives, so a non-expired page is never reclaimed by mistake;
* false positives only delay expiration (a page may be retained longer
  than strictly needed), which is safe.
"""

import math

from repro.common.errors import ReproError


def _splitmix64(x):
    """Deterministic 64-bit mixer (SplitMix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class BloomFilter:
    """A classic bloom filter over non-negative integers.

    Sized from ``capacity`` and ``fp_rate`` using the standard optimal
    formulas; hashing uses double hashing over two SplitMix64 streams.
    """

    def __init__(self, capacity, fp_rate=0.01, seed=0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < fp_rate < 1:
            raise ValueError("fp_rate must be in (0, 1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        self._seed = seed
        bits = max(8, int(math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))))
        self._nbits = bits
        self._hashes = max(1, int(round(bits / capacity * math.log(2))))
        self._bits = bytearray((bits + 7) // 8)
        self.count = 0

    @property
    def nbits(self):
        return self._nbits

    @property
    def nhashes(self):
        return self._hashes

    def _walk(self, item):
        """The double hash: ``(first position, step)``.  Position i is
        ``(h1 + i * h2) % nbits`` for two SplitMix64 mixes (written out)
        h1 and h2, walked in small-int steps of ``h2 % nbits`` so a probe
        can stop at the first clear bit."""
        h = (item ^ self._seed) + 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
        h2 = h + 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        h2 = (h2 ^ (h2 >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        h2 = (h2 ^ (h2 >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return h % self._nbits, (h2 ^ (h2 >> 31) | 1) % self._nbits

    def add(self, item):
        """Set ``item``'s bits and count it, whether or not it was in."""
        if not self.insert(item):
            self.count += 1

    def insert(self, item):
        """Add ``item`` unless the probe would find it: set its bits and
        count it, in one pass; returns whether it was added."""
        if item < 0:
            raise ReproError("bloom filter items must be non-negative")
        bits, nbits, hashes = self._bits, self._nbits, self._hashes
        pos, step = self._walk(item)
        for first_clear in range(hashes):  # the probe, up to a clear bit
            if not bits[pos >> 3] >> (pos & 7) & 1:
                break
            pos = (pos + step) % nbits
        else:
            return False
        for _ in range(first_clear, hashes):  # the add, from that bit on
            bits[pos >> 3] |= 1 << (pos & 7)
            pos = (pos + step) % nbits
        self.count += 1
        return True

    def __contains__(self, item):
        bits, nbits = self._bits, self._nbits
        pos, step = self._walk(item)
        for _ in range(self._hashes):
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
            pos = (pos + step) % nbits
        return True

    @property
    def is_full(self):
        return self.count >= self.capacity

    def memory_bytes(self):
        return len(self._bits)


class BloomSegment:
    """One time segment: a bloom filter plus its lifetime bookkeeping.

    ``delta_records`` and delta blocks are attached by the delta manager;
    they die together with the segment.
    """

    __slots__ = (
        "segment_id",
        "bloom",
        "created_us",
        "sealed_us",
        "dropped",
    )

    def __init__(self, segment_id, bloom, created_us):
        self.segment_id = segment_id
        self.bloom = bloom
        self.created_us = created_us
        self.sealed_us = None
        self.dropped = False

    @property
    def active(self):
        return self.sealed_us is None and not self.dropped

    def __repr__(self):
        state = "active" if self.active else ("dropped" if self.dropped else "sealed")
        return "BloomSegment(#%d, %s, n=%d)" % (
            self.segment_id,
            state,
            self.bloom.count,
        )


class TimeSegmentedBlooms:
    """The chain of time-ordered bloom segments (Figure 4).

    Invalidations are recorded at *group* granularity: ``group_size``
    consecutive pages of a flash block share one entry, exploiting the
    sequential-programming / sequential-invalidation locality the paper
    observes (N = 16 by default).
    """

    def __init__(
        self,
        clock,
        capacity_per_filter=4096,
        group_size=16,
        seed=0,
        max_segment_age_us=None,
    ):
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        self._clock = clock
        self._capacity = capacity_per_filter
        self.group_size = group_size
        self._seed = seed
        self._max_age_us = max_segment_age_us
        self._segments = []
        #: ``find_segment``'s answers among the sealed filters, by group,
        #: until the segment list next changes.
        self._found = {}
        #: Groups known to be in the active filter (added or found since
        #: it opened): bits are only ever set, so the probe would say yes.
        self._in_active = set()
        self._next_id = 0
        self._new_segment()

    def _new_segment(self):
        bloom = BloomFilter(
            self._capacity, seed=_splitmix64(self._seed + self._next_id)
        )
        segment = BloomSegment(self._next_id, bloom, self._clock.now_us)
        self._next_id += 1
        self._segments.append(segment)
        self._found.clear()
        self._in_active.clear()
        return segment

    def reset(self):
        """Forget every segment (power loss) and open a fresh active one.

        Segment ids stay monotonic across the reset so records rebuilt
        after a crash can never collide with pre-crash segment ids.
        """
        self._segments = []
        return self._new_segment()  # empties the memo and the known groups

    def group_of(self, ppa):
        return ppa // self.group_size

    # --- Recording -----------------------------------------------------------

    def record_invalidation(self, ppa):
        """Register an invalidated PPA in the active segment; returns it.

        Group granularity is what makes this cheap (§3.5): sequential
        writes invalidate sequential pages, so a whole group of ``N``
        neighbours shares one filter entry — if the group is already in
        the active filter the invalidation costs nothing, each filter
        covers more pages, and fewer filters are needed.
        """
        self._record((ppa,))
        return self._segments[-1]

    def record_invalidations(self, ppas):
        """:meth:`record_invalidation` for each of ``ppas``, in order."""
        self._record(ppas)

    def _record(self, ppas):
        """Register each of ``ppas``, in order, in the active segment.

        A group already in the active filter costs nothing.  Segments
        also seal by age: a filter represents one time slice, and the
        adaptive window needs slices fine enough to drop.  A group added
        to (or found in) the active filter since it opened skips the
        probe — bits are only ever set, so the answer is known; every
        other group takes the real probe (fused with the add while the
        filter has room), because a false positive skips an ``add`` and
        so decides ``count`` and when the filter rolls over.
        """
        active = self._segments[-1]
        group_size = self.group_size
        max_age_us = self._max_age_us
        now_us = self._clock.now_us  # nothing below moves the clock
        in_active = self._in_active
        for ppa in ppas:
            if (
                max_age_us is not None
                and active.bloom.count > 0
                and now_us - active.created_us >= max_age_us
            ):
                active.sealed_us = now_us
                active = self._new_segment()
            group = ppa // group_size
            if group in in_active:
                continue
            bloom = active.bloom
            if bloom.count < bloom.capacity:
                bloom.insert(group)  # the probe and the add, one pass
            elif group not in bloom:
                active.sealed_us = now_us
                active = self._new_segment()
                active.bloom.add(group)
            in_active.add(group)

    # --- Lookup --------------------------------------------------------------

    def find_segment(self, ppa):
        """Newest live segment whose filter contains the page's group.

        Checked in reverse time order as the paper prescribes: a false
        positive then at worst delays expiration, never causes premature
        reclamation.

        Only the active filter takes adds, so it is probed first (a group
        known to be in it skips even that), and the walk over the sealed
        filters behind it is memoized per group until the segment list
        next changes: every new segment and every drop or reset empties
        the memo, so a memoized answer is always the walk's.
        """
        group = ppa // self.group_size
        active = self._segments[-1]
        if group in self._in_active:
            return active
        if group in active.bloom:
            self._in_active.add(group)
            return active
        found = self._found
        if group in found:
            return found[group]
        answer = None
        for segment in reversed(self._segments):
            if segment is active or segment.dropped:
                continue
            if group in segment.bloom:
                answer = segment
                break
        found[group] = answer
        return answer

    def is_retained(self, ppa):
        return self.find_segment(ppa) is not None

    # --- Window management ----------------------------------------------------

    def live_segments(self):
        return [s for s in self._segments if not s.dropped]

    @property
    def oldest_live(self):
        for segment in self._segments:
            if not segment.dropped:
                return segment
        return None

    def window_start_us(self):
        """Start of the retrievable time window (oldest live BF creation)."""
        oldest = self.oldest_live
        return oldest.created_us if oldest else self._clock.now_us

    def retention_us(self):
        """Current achieved retention duration."""
        return self._clock.now_us - self.window_start_us()

    def drop_oldest(self):
        """Recycle the oldest live segment; returns it (or None).

        The active (newest) segment is never dropped — there must always
        be a segment to record into.
        """
        live = self.live_segments()
        if len(live) <= 1:
            return None
        oldest = live[0]
        oldest.dropped = True
        self._found.clear()
        # Trim fully dropped prefix so scans stay short over long runs.
        while self._segments and self._segments[0].dropped:
            self._segments.pop(0)
        return oldest

    def can_drop_oldest(self, floor_us):
        """Would dropping the oldest segment keep the retention floor?

        After the drop the window starts at the *next* live segment's
        creation time; every page lost with the dropped segment has then
        been retained at least ``now - next.created_us``.
        """
        live = self.live_segments()
        if len(live) <= 1:
            return False
        next_start = live[1].created_us
        return self._clock.now_us - next_start >= floor_us

    def memory_bytes(self):
        return sum(s.bloom.memory_bytes() for s in self._segments if not s.dropped)

    def __len__(self):
        return len(self.live_segments())
