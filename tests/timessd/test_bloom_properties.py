"""Property-based tests on the time-segmented bloom chain."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.common.clock import SimClock
from repro.timessd.bloom import TimeSegmentedBlooms

EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4095),  # ppa
        st.integers(min_value=1, max_value=100_000),  # clock advance
    ),
    min_size=1,
    max_size=300,
)


@given(events=EVENTS, capacity=st.integers(2, 64), group=st.sampled_from([1, 4, 16]))
@settings(max_examples=60, deadline=None)
def test_no_false_negatives_while_undropped(events, capacity, group):
    clock = SimClock()
    blooms = TimeSegmentedBlooms(
        clock, capacity_per_filter=capacity, group_size=group, seed=2
    )
    recorded = set()
    for ppa, advance in events:
        clock.advance(advance)
        blooms.record_invalidation(ppa)
        recorded.add(ppa)
    # Without drops, every recorded page is retained — no false negatives.
    assert all(blooms.is_retained(ppa) for ppa in recorded)


@given(events=EVENTS, drops=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_window_start_monotonic_under_drops(events, drops):
    clock = SimClock()
    blooms = TimeSegmentedBlooms(clock, capacity_per_filter=4, group_size=1, seed=3)
    for ppa, advance in events:
        clock.advance(advance)
        blooms.record_invalidation(ppa)
    starts = [blooms.window_start_us()]
    for _ in range(drops):
        blooms.drop_oldest()
        starts.append(blooms.window_start_us())
    assert starts == sorted(starts)
    assert blooms.window_start_us() <= clock.now_us


@given(events=EVENTS)
@settings(max_examples=40, deadline=None)
def test_segments_are_time_ordered(events):
    clock = SimClock()
    blooms = TimeSegmentedBlooms(
        clock,
        capacity_per_filter=4,
        group_size=1,
        seed=4,
        max_segment_age_us=50_000,
    )
    for ppa, advance in events:
        clock.advance(advance)
        blooms.record_invalidation(ppa)
    live = blooms.live_segments()
    creations = [segment.created_us for segment in live]
    assert creations == sorted(creations)
    # Sealed segments precede the single active one.
    assert all(not segment.active for segment in live[:-1])
    assert live[-1].active


@given(events=EVENTS, floor=st.integers(0, 500_000))
@settings(max_examples=40, deadline=None)
def test_floor_always_respected_by_can_drop(events, floor):
    clock = SimClock()
    blooms = TimeSegmentedBlooms(clock, capacity_per_filter=2, group_size=1, seed=5)
    for ppa, advance in events:
        clock.advance(advance)
        blooms.record_invalidation(ppa)
    while blooms.can_drop_oldest(floor):
        live = blooms.live_segments()
        # The guarantee: after this drop the remaining window covers at
        # least the floor.
        assert clock.now_us - live[1].created_us >= floor
        blooms.drop_oldest()


def _chain_state(blooms):
    return [
        (
            segment.segment_id,
            segment.created_us,
            segment.sealed_us,
            segment.bloom.count,
            bytes(segment.bloom._bits),
        )
        for segment in blooms._segments
    ]


@given(
    batches=st.lists(
        st.lists(st.integers(min_value=0, max_value=4095), max_size=120),
        min_size=1,
        max_size=4,
    ),
    capacity=st.integers(2, 12),
    group=st.sampled_from([1, 4, 16]),
    # None: segments roll over when full only.  Otherwise the active
    # segment is already older than this when each batch arrives, so the
    # first page of a batch also rolls it over by age.
    max_age_us=st.sampled_from([None, 1, 1000]),
)
# A group re-invalidated after the filter it was added to rolled over —
# full, then aged — must be added again to the new one.
@example(batches=[[0, 1, 2, 0]], capacity=2, group=1, max_age_us=None)
@example(batches=[[5, 5]], capacity=8, group=1, max_age_us=1000)
@settings(max_examples=80, deadline=None)
def test_batch_recording_is_the_per_page_sequence(batches, capacity, group, max_age_us):
    """``record_invalidations`` skips only probes whose answer it holds:
    twin chains fed page by page and batch by batch agree on segment ids,
    ``count``s, seal times and every filter bit — through several
    roll-overs, where one wrongly skipped (or wrongly made) ``add`` would
    shift every later segment boundary."""
    chains = []
    for batched in (False, True):
        clock = SimClock()
        blooms = TimeSegmentedBlooms(
            clock,
            capacity_per_filter=capacity,
            group_size=group,
            seed=5,
            max_segment_age_us=max_age_us,
        )
        for ppas in batches:
            clock.advance(2000)
            if batched:
                blooms.record_invalidations(ppas)
            else:
                for ppa in ppas:
                    blooms.record_invalidation(ppa)
        chains.append(_chain_state(blooms))
    assert chains[0] == chains[1]
