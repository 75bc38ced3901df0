"""Delta-block lifecycle: dedicated per-segment blocks, wholesale erase."""

import pytest

from repro.common.units import SECOND_US
from repro.ftl.block_manager import BlockKind

from tests.conftest import make_timessd, small_geometry


def build_history(ssd, lpa=0):
    """Overwrite one LPA enough to fill blocks, then force compression."""
    geo = ssd.device.geometry
    for _ in range(geo.channels * geo.pages_per_block + 8):
        ssd.write(lpa)
        ssd.clock.advance(800)
    victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
    assert victim is not None
    ssd.relocate_block(victim, ssd.clock.now_us)
    # Force the RAM buffers out so delta blocks exist on flash.
    for segment_id in list(ssd.deltas.live_segment_ids()):
        ssd.deltas.flush_segment(segment_id, ssd.clock.now_us)


def delta_blocks(ssd):
    return [
        pba
        for pba in range(ssd.device.geometry.total_blocks)
        if ssd.block_manager.kind(pba) is BlockKind.DELTA
    ]


def test_deltas_live_in_dedicated_blocks():
    ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
    build_history(ssd)
    blocks = delta_blocks(ssd)
    assert blocks, "compression should have produced delta blocks"
    # Delta blocks hold only delta pages — never user data.
    from repro.timessd.delta import DeltaPage

    for pba in blocks:
        core = ssd.device.core
        first = pba * core.pages_per_block
        for offset in range(core.write_pointer[pba]):
            assert isinstance(core.data[first + offset], DeltaPage)


def test_delta_blocks_not_wear_swapped():
    """§3.8: wear leveling must not move delta blocks (it would break
    the delta-page chains)."""
    ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
    build_history(ssd)
    before = set(delta_blocks(ssd))
    # Run the leveler aggressively; delta blocks must stay put.
    for _ in range(50):
        ssd.wear_leveler._maybe_swap(ssd.clock.now_us)
    assert before <= set(delta_blocks(ssd))


def test_segment_drop_erases_delta_blocks_wholesale():
    ssd = make_timessd(
        retention_floor_us=0,
        bloom_capacity=16,
        bloom_group_size=1,
        bloom_segment_max_age_us=200_000,
    )
    build_history(ssd)
    blocks_before = delta_blocks(ssd)
    erases_before = ssd.device.block_erases.value
    reads_before = ssd.device.page_reads.value
    dropped = 0
    while True:
        segment = ssd.retention.shrink()
        if segment is None:
            break
        ssd.deltas.drop_segment(segment.segment_id, ssd.clock.now_us)
        dropped += 1
    assert dropped > 0
    # Wholesale: erases happened with no migration reads.
    assert ssd.device.block_erases.value > erases_before
    assert ssd.device.page_reads.value == reads_before
    assert len(delta_blocks(ssd)) < max(1, len(blocks_before))


def test_dropped_segment_records_unreachable():
    ssd = make_timessd(
        retention_floor_us=0,
        bloom_capacity=16,
        bloom_group_size=1,
        bloom_segment_max_age_us=200_000,
    )
    build_history(ssd)
    count_before = len(ssd.version_chain(0)[0])
    while True:
        segment = ssd.retention.shrink()
        if segment is None:
            break
        ssd.deltas.drop_segment(segment.segment_id, ssd.clock.now_us)
    count_after = len(ssd.version_chain(0)[0])
    assert count_after <= count_before
    assert count_after >= 1  # the current version is untouchable
