import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import AddressError, DeviceFullError
from repro.flash.device import FlashDevice
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl.block_manager import BlockKind, BlockManager, StreamId

from tests.conftest import make_timessd, small_geometry


@pytest.fixture
def bm():
    return BlockManager(FlashDevice(small_geometry()))


def program(bm, ppa, lpa=0):
    bm.device.program_page(ppa, b"d", OOBMetadata(lpa, NULL_PPA, 0))
    bm.mark_valid(ppa)


def test_all_blocks_start_free(bm):
    assert bm.free_block_count == bm.device.geometry.total_blocks


def test_allocation_consumes_blocks_lazily(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    channels = geo.channels
    # Striped user allocation opens one append block per channel, then
    # fills them all before opening more.
    for _ in range(channels * ppb):
        program(bm, bm.allocate_page(StreamId.USER))
    assert bm.free_block_count == geo.total_blocks - channels
    program(bm, bm.allocate_page(StreamId.USER))
    assert bm.free_block_count == geo.total_blocks - channels - 1


def test_unstriped_stream_fills_one_block_at_a_time(bm):
    geo = bm.device.geometry
    key = ("delta", 0)
    for _ in range(geo.pages_per_block):
        ppa = bm.allocate_page_keyed(key, BlockKind.DELTA)
        bm.device.program_page(ppa, b"d", OOBMetadata(0, NULL_PPA, 0))
    assert bm.free_block_count == geo.total_blocks - 1


def test_streams_use_distinct_blocks(bm):
    a = bm.allocate_page(StreamId.USER)
    program(bm, a)
    b = bm.allocate_page(StreamId.GC)
    geo = bm.device.geometry
    assert geo.block_of_page(a) != geo.block_of_page(b)


def test_allocation_stripes_channels(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    channels = []
    for _ in range(4 * ppb):
        ppa = bm.allocate_page(StreamId.USER)
        program(bm, ppa)
        channels.append(geo.channel_of_page(ppa))
    # Four full blocks worth: all channels used.
    assert set(channels) == set(range(geo.channels))


def test_validity_tracking(bm):
    ppa = bm.allocate_page(StreamId.USER)
    program(bm, ppa)
    assert bm.is_valid(ppa)
    bm.invalidate_page(ppa)
    assert not bm.is_valid(ppa)
    pba = bm.device.geometry.block_of_page(ppa)
    assert bm.invalid_count(pba) == 1
    assert bm.valid_count(pba) == 0


def test_double_invalidate_is_idempotent(bm):
    ppa = bm.allocate_page(StreamId.USER)
    program(bm, ppa)
    bm.invalidate_page(ppa)
    bm.invalidate_page(ppa)
    pba = bm.device.geometry.block_of_page(ppa)
    assert bm.valid_count(pba) == 0


def test_greedy_victim_prefers_most_invalid(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    # Fill two blocks via unstriped streams so layout is deterministic;
    # invalidate 1 page of the first, all of the second.
    first_block, second_block = [], []
    for _ in range(ppb):
        ppa = bm.allocate_page_keyed("a", BlockKind.DATA)
        program(bm, ppa)
        first_block.append(ppa)
    for _ in range(ppb):
        ppa = bm.allocate_page_keyed("b", BlockKind.DATA)
        program(bm, ppa)
        second_block.append(ppa)
    bm.invalidate_page(first_block[0])
    for p in second_block:
        bm.invalidate_page(p)
    victim = bm.select_greedy_victim(BlockKind.DATA)
    assert victim == geo.block_of_page(second_block[0])


def test_victim_ignores_active_blocks(bm):
    ppa = bm.allocate_page(StreamId.USER)
    program(bm, ppa)
    bm.invalidate_page(ppa)
    # Block not sealed -> not a victim.
    assert bm.select_greedy_victim(BlockKind.DATA) is None


def test_release_requires_no_valid_pages(bm):
    geo = bm.device.geometry
    for _ in range(geo.pages_per_block):
        program(bm, bm.allocate_page(StreamId.USER))
    pba = geo.block_of_page(0)
    from repro.common.errors import AddressError

    with pytest.raises(AddressError):
        bm.release_block(pba)


def test_exhaustion_raises(bm):
    geo = bm.device.geometry
    with pytest.raises(DeviceFullError):
        for _ in range(geo.total_pages + 1):
            program(bm, bm.allocate_page(StreamId.USER))


def test_keyed_streams_are_independent(bm):
    a = bm.allocate_page_keyed(("delta", 1), BlockKind.DELTA)
    bm.device.program_page(a, b"d", OOBMetadata(0, NULL_PPA, 0))
    b = bm.allocate_page_keyed(("delta", 2), BlockKind.DELTA)
    geo = bm.device.geometry
    assert geo.block_of_page(a) != geo.block_of_page(b)
    assert bm.kind(geo.block_of_page(a)) is BlockKind.DELTA


def test_close_stream_returns_active_block(bm):
    a = bm.allocate_page_keyed(("delta", 1), BlockKind.DELTA)
    pba = bm.device.geometry.block_of_page(a)
    assert bm.close_stream(("delta", 1)) == pba
    assert bm.close_stream(("delta", 1)) is None


def test_utilization(bm):
    assert bm.utilization() == 0.0
    program(bm, bm.allocate_page(StreamId.USER))
    assert bm.utilization() > 0.0


# --- Victim selection ≡ a brute-force reference ----------------------------


def reference_sealed(bm, kind):
    core = bm.device.core
    full = bm.device.geometry.pages_per_block
    return [
        pba
        for pba in range(bm.device.geometry.total_blocks)
        if bm.kind(pba) not in (BlockKind.FREE, BlockKind.RETIRED)
        and (kind is None or bm.kind(pba) is kind)
        and (core.write_pointer[pba] >= full or bm._sealed[pba] or core.failed[pba])
    ]


def reference_greedy(bm, kind):
    scored = [(bm.invalid_count(pba), -pba) for pba in reference_sealed(bm, kind)]
    scored = [entry for entry in scored if entry[0] > 0]
    return -max(scored)[1] if scored else None


def reference_cost_benefit(bm, now_us, kind):
    core = bm.device.core
    scored = []
    for pba in reference_sealed(bm, kind):
        programmed, valid = core.write_pointer[pba], bm.valid_count(pba)
        if programmed == 0 or programmed == valid:
            continue
        u = valid / programmed
        age = max(1, now_us - core.last_program_us[pba])
        scored.append(((1.0 - u) * age / (1.0 + u), -pba))
    scored = [entry for entry in scored if entry[0] > 0.0]
    return -max(scored)[1] if scored else None


_STREAMS = (
    (StreamId.USER, BlockKind.DATA, True),
    (StreamId.GC, BlockKind.DATA, True),
    (("delta", 0), BlockKind.DELTA, False),
    (("delta", 1), BlockKind.DELTA, False),
    ("ckpt", BlockKind.TRANSLATION, False),
)

_bm_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["write", "write", "write", "valid", "invalidate", "seal",
             "condemn", "release"]
        ),
        st.integers(0, 10_000),  # picks the stream / block / page
        st.integers(1, 24),  # pages per "write" burst
    ),
    max_size=60,
)


@given(ops=_bm_ops)
@settings(max_examples=120, deadline=None)
def test_victim_selection_matches_brute_force(ops):
    geo = small_geometry(channels=2, blocks_per_plane=6, pages_per_block=4)
    bm = BlockManager(FlashDevice(geo))
    core = bm.device.core
    now = 0
    kinds = (None,) + tuple(BlockKind)
    for op, pick, burst in ops:
        now += 37
        pba = pick % geo.total_blocks
        if op == "write":
            key, kind, striped = _STREAMS[pick % len(_STREAMS)]
            for _ in range(burst):
                if bm.free_block_count == 0:
                    break
                ppa = bm.allocate_page_keyed(key, kind, striped)
                bm.device.program_page(ppa, b"d", OOBMetadata(0, NULL_PPA, now), now)
                if pick % 3:
                    bm.mark_valid(ppa)
        elif op == "valid":
            bm.mark_valid(pick % geo.total_pages)  # programmed or not
        elif op == "invalidate":
            bm.invalidate_page(pick % geo.total_pages)
        elif op == "seal":
            if bm.kind(pba) is not BlockKind.FREE:
                bm.seal_block(pba)
        elif op == "condemn":
            if bm.kind(pba) not in (BlockKind.FREE, BlockKind.RETIRED):
                core.failed[pba] = 1  # a grown-bad block, mid-life
                bm.condemn_block(pba)
        elif op == "release":
            if bm.kind(pba) not in (BlockKind.FREE, BlockKind.RETIRED):
                for ppa in geo.pages_of_block(pba):
                    bm.invalidate_page(ppa)
                core.erase(pba)
                bm.release_block(pba)  # frees, or retires a failed block
        for kind in kinds:
            sealed = bm.sealed_blocks(kind)
            assert list(sealed) == reference_sealed(bm, kind)
            assert bm.select_greedy_victim(kind) == reference_greedy(bm, kind)
            assert bm.select_cost_benefit_victim(now, kind) == reference_cost_benefit(
                bm, now, kind
            )
    assert bm.select_greedy_victim() == reference_greedy(bm, BlockKind.DATA)
    assert bm.select_victim("cost_benefit", now) == reference_cost_benefit(
        bm, now, BlockKind.DATA
    )


def test_greedy_tie_goes_to_the_lowest_pba(bm):
    geo = bm.device.geometry
    # Fill two blocks on different channels; one stale page in each.
    blocks = []
    for _ in range(geo.channels * geo.pages_per_block):
        ppa = bm.allocate_page(StreamId.USER)
        program(bm, ppa)
        blocks.append(geo.block_of_page(ppa))
    first, second = sorted(set(blocks))[:2]
    bm.invalidate_page(geo.first_page_of_block(second))
    bm.invalidate_page(geo.first_page_of_block(first))
    assert bm.select_greedy_victim() == first
    assert bm.select_cost_benefit_victim(10**6) == first


def test_the_fresh_table_loader_is_mark_valid_per_head():
    """The mount's PVT load: on a churned device's head column it marks
    exactly what a per-head ``mark_valid`` marks, with the same counts
    per block, and it refuses a table that already holds a valid page."""
    ssd = make_timessd()
    rng = random.Random(3)
    for _ in range(6 * ssd.device.geometry.pages_per_block):
        ssd.write(rng.randrange(ssd.logical_pages // 2))
        ssd.clock.advance(700)
    head_ppa = [ssd.mapping.lookup(lpa) for lpa in range(ssd.logical_pages)]
    assert head_ppa.count(NULL_PPA) > 0 < len(head_ppa) - head_ppa.count(NULL_PPA)
    one_by_one = BlockManager(ssd.device)
    for ppa in head_ppa:
        if ppa != NULL_PPA:
            one_by_one.mark_valid(ppa)
    loaded = BlockManager(ssd.device)
    loaded.load_valid(head_ppa)
    assert loaded.valid == one_by_one.valid == ssd.block_manager.valid
    assert loaded.valid_per_block == one_by_one.valid_per_block
    assert loaded.valid_per_block == ssd.block_manager.valid_per_block

    with pytest.raises(AddressError, match="not fresh"):
        loaded.load_valid(head_ppa)
    assert loaded.valid == one_by_one.valid