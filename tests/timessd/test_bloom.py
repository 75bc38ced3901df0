import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import ReproError
from repro.timessd.bloom import BloomFilter, TimeSegmentedBlooms, _splitmix64


class TestBloomFilter:
    def test_added_items_are_found(self):
        bf = BloomFilter(capacity=128, seed=1)
        for item in range(100):
            bf.add(item * 7)
        assert all((item * 7) in bf for item in range(100))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.5)

    def test_rejects_negative_items(self):
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            BloomFilter(8).add(-1)

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter(capacity=2000, fp_rate=0.01, seed=3)
        for item in range(2000):
            bf.add(item)
        false_hits = sum(1 for probe in range(10_000, 30_000) if probe in bf)
        assert false_hits / 20_000 < 0.05  # generous 5x margin on 1% target

    def test_fullness(self):
        bf = BloomFilter(capacity=4)
        assert not bf.is_full
        for item in range(4):
            bf.add(item)
        assert bf.is_full

    def test_memory_is_bounded(self):
        bf = BloomFilter(capacity=4096, fp_rate=0.01)
        # ~9.6 bits/item at 1% fp -> well under 8 KiB.
        assert bf.memory_bytes() < 8192

    @given(items=st.sets(st.integers(min_value=0, max_value=2**48), max_size=200))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        bf = BloomFilter(capacity=max(1, len(items)), seed=9)
        for item in items:
            bf.add(item)
        assert all(item in bf for item in items)

    @given(
        items=st.lists(st.integers(min_value=0, max_value=2**48), max_size=120),
        probes=st.lists(st.integers(min_value=-5, max_value=2**48), max_size=120),
        capacity=st.integers(1, 64),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_membership_matches_reference_bitset(self, items, probes, capacity, seed):
        """The early-exit probe loop answers exactly what the textbook
        double-hash bitset does: same positions, same bits, same count."""
        bf = BloomFilter(capacity=capacity, fp_rate=0.05, seed=seed)

        def positions(item):
            h1 = _splitmix64(item ^ seed)
            h2 = _splitmix64(h1) | 1
            return [(h1 + i * h2) % bf.nbits for i in range(bf.nhashes)]

        reference = set()
        for item in items:
            bf.add(item)
            reference.update(positions(item))
        assert bf.count == len(items)
        assert {
            pos for pos in range(bf.nbits) if bf._bits[pos >> 3] >> (pos & 7) & 1
        } == reference
        for probe in items + probes:
            assert (probe in bf) == reference.issuperset(positions(probe))

    def test_negative_add_leaves_filter_untouched(self):
        bf = BloomFilter(capacity=8)
        with pytest.raises(ReproError):
            bf.add(-1)
        assert bf.count == 0 and not any(bf._bits)


class TestTimeSegmentedBlooms:
    def make(self, capacity=4, group_size=4):
        clock = SimClock()
        return clock, TimeSegmentedBlooms(
            clock, capacity_per_filter=capacity, group_size=group_size, seed=5
        )

    def test_grouping(self):
        _clock, blooms = self.make(group_size=4)
        assert blooms.group_of(0) == blooms.group_of(3)
        assert blooms.group_of(3) != blooms.group_of(4)

    def test_recorded_pages_are_retained(self):
        _clock, blooms = self.make()
        blooms.record_invalidation(10)
        assert blooms.is_retained(10)
        # Group granularity: neighbours in the same group also hit.
        assert blooms.is_retained(8)

    def test_unrecorded_page_not_retained(self):
        _clock, blooms = self.make()
        assert not blooms.is_retained(100)

    def test_segment_rollover_on_capacity(self):
        clock, blooms = self.make(capacity=2, group_size=1)
        clock.advance(10)
        blooms.record_invalidation(1)
        blooms.record_invalidation(2)
        clock.advance(10)
        blooms.record_invalidation(3)  # rolls into a new segment
        live = blooms.live_segments()
        assert len(live) == 2
        assert live[0].sealed_us is not None
        assert live[1].active

    def test_find_segment_prefers_newest(self):
        clock, blooms = self.make(capacity=1, group_size=1)
        blooms.record_invalidation(7)
        clock.advance(100)
        blooms.record_invalidation(7)  # same group again, new segment
        segment = blooms.find_segment(7)
        assert segment is blooms.live_segments()[-1]

    def test_drop_oldest_shrinks_window(self):
        clock, blooms = self.make(capacity=1, group_size=1)
        blooms.record_invalidation(1)
        clock.advance(1000)
        blooms.record_invalidation(2)
        clock.advance(1000)
        start_before = blooms.window_start_us()
        dropped = blooms.drop_oldest()
        assert dropped is not None
        assert blooms.window_start_us() > start_before

    def test_never_drops_last_segment(self):
        _clock, blooms = self.make()
        assert blooms.drop_oldest() is None

    def test_dropped_pages_become_expired(self):
        clock, blooms = self.make(capacity=1, group_size=1)
        blooms.record_invalidation(1)
        clock.advance(10)
        blooms.record_invalidation(2)
        blooms.drop_oldest()
        assert not blooms.is_retained(1)
        assert blooms.is_retained(2)

    def test_floor_blocks_young_drop(self):
        clock, blooms = self.make(capacity=1, group_size=1)
        blooms.record_invalidation(1)
        clock.advance(10)
        blooms.record_invalidation(2)
        assert not blooms.can_drop_oldest(floor_us=1000)
        clock.advance(2000)
        assert blooms.can_drop_oldest(floor_us=1000)

    def test_retention_us_tracks_oldest_live(self):
        clock, blooms = self.make(capacity=1, group_size=1)
        blooms.record_invalidation(1)
        clock.advance(500)
        assert blooms.retention_us() == 500


# --- The memoized lookup and the known-group skip against a plain model -------


class ReferenceBlooms:
    """The segment chain with nothing remembered: every recording probes
    the active filter, every lookup scans the live filters newest first."""

    def __init__(self, clock, capacity, group_size, seed, max_age_us):
        self.clock = clock
        self.capacity = capacity
        self.group_size = group_size
        self.seed = seed
        self.max_age_us = max_age_us
        self.segments = []
        self.next_id = 0
        self.rollovers = {"full": 0, "age": 0}
        self.false_positive_skips = 0
        self.new_segment()

    def new_segment(self):
        bloom = BloomFilter(self.capacity, seed=_splitmix64(self.seed + self.next_id))
        self.segments.append(
            {"id": self.next_id, "bloom": bloom, "added": set(),
             "created": self.clock.now_us, "sealed": None, "dropped": False}
        )
        self.next_id += 1

    def seal_and_open(self, why):
        self.segments[-1]["sealed"] = self.clock.now_us
        self.rollovers[why] += 1
        self.new_segment()

    def record(self, ppa):
        active = self.segments[-1]
        if (
            self.max_age_us is not None
            and active["bloom"].count > 0
            and self.clock.now_us - active["created"] >= self.max_age_us
        ):
            self.seal_and_open("age")
        group = ppa // self.group_size
        active = self.segments[-1]
        if group in active["bloom"]:
            self.false_positive_skips += group not in active["added"]
            return
        if active["bloom"].is_full:
            self.seal_and_open("full")
            active = self.segments[-1]
        active["bloom"].add(group)
        active["added"].add(group)

    def find(self, ppa):
        group = ppa // self.group_size
        for segment in reversed(self.segments):
            if not segment["dropped"] and group in segment["bloom"]:
                return segment["id"]
        return None

    def drop_oldest(self):
        live = [s for s in self.segments if not s["dropped"]]
        if len(live) > 1:
            live[0]["dropped"] = True

    def reset(self):
        self.segments = []
        self.new_segment()

    def live_state(self):
        return [
            (s["id"], s["created"], s["sealed"], s["bloom"].count,
             bytes(s["bloom"]._bits))
            for s in self.segments if not s["dropped"]
        ]


def _live_state(blooms):
    return [
        (s.segment_id, s.created_us, s.sealed_us, s.bloom.count, bytes(s.bloom._bits))
        for s in blooms.live_segments()
    ]


@pytest.mark.parametrize(
    "capacity, group_size, max_age_us",
    [(1, 1, None), (3, 4, None), (3, 1, 2500), (8, 2, 1200)],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoized_lookup_is_the_newest_first_scan(capacity, group_size, max_age_us, seed):
    """After every step of a seeded mix of per-page and batched recording,
    drops, resets and clock advances, ``find_segment`` answers what a scan
    with no memo answers, for every probed page — and the filters hold
    the bits and counts a recorder that probes every page would set."""
    rng = random.Random(seed)
    clock = SimClock()
    blooms = TimeSegmentedBlooms(
        clock,
        capacity_per_filter=capacity,
        group_size=group_size,
        seed=seed,
        max_segment_age_us=max_age_us,
    )
    ref = ReferenceBlooms(clock, capacity, group_size, seed, max_age_us)
    probes = range(0, 160, 3)
    for _step in range(400):
        roll = rng.random()
        if roll < 0.45:
            ppa = rng.randrange(160)
            blooms.record_invalidation(ppa)
            ref.record(ppa)
        elif roll < 0.75:
            ppas = [rng.randrange(160) for _ in range(rng.randrange(1, 6))]
            blooms.record_invalidations(ppas)
            for ppa in ppas:
                ref.record(ppa)
        elif roll < 0.88:
            blooms.drop_oldest()
            ref.drop_oldest()
        elif roll < 0.9:
            blooms.reset()
            ref.reset()
        else:
            clock.advance(rng.randrange(1, 1500))
        for ppa in probes:
            found = blooms.find_segment(ppa)
            assert (found and found.segment_id) == ref.find(ppa), ppa
        assert _live_state(blooms) == ref.live_state()
    # The run covered what the memo and the known-group set must survive.
    assert ref.rollovers["full"] > 0
    if max_age_us is not None:
        assert ref.rollovers["age"] > 0
    if capacity == 1:
        assert ref.false_positive_skips > 0
