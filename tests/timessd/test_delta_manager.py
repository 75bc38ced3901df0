import pytest

from repro.ftl.block_manager import BlockKind
from repro.timessd.delta import DeltaManager, DeltaPage, DeltaRecord

from tests.conftest import make_timessd


def make_record(lpa=1, ts=10, size=100, segment=0):
    return DeltaRecord(
        lpa=lpa,
        version_ts=ts,
        ref_ts=ts + 5,
        payload=("tok", lpa, ts),
        size_bytes=size,
        segment_id=segment,
    )


@pytest.fixture
def ssd():
    return make_timessd()


def test_records_buffer_in_ram(ssd):
    mgr = ssd.deltas
    mgr.add_records([make_record(size=50)], now_us=0)
    assert mgr.ram_bytes() > 0
    assert mgr.flushed_pages.value == 0


def test_buffer_overflow_flushes_a_delta_page(ssd):
    mgr = ssd.deltas
    usable = mgr.usable_page_bytes()
    size = usable // 2
    mgr.add_records([make_record(ts=1, size=size)], now_us=0)
    mgr.add_records([make_record(ts=2, size=size)], now_us=0)  # would overflow
    assert mgr.flushed_pages.value == 1


def test_flush_assigns_flash_ppa_and_delta_block(ssd):
    mgr = ssd.deltas
    record = make_record(segment=3)
    mgr.add_records([record], now_us=0)
    mgr.flush_segment(3, now_us=0)
    assert record.flash_ppa is not None
    pba = ssd.device.geometry.block_of_page(record.flash_ppa)
    assert ssd.block_manager.kind(pba) is BlockKind.DELTA
    assert pba in mgr.segment_blocks(3)
    page = ssd.device.peek_page(record.flash_ppa)
    assert isinstance(page.data, DeltaPage)
    assert record in page.data.records


def test_segments_use_separate_blocks(ssd):
    mgr = ssd.deltas
    r1, r2 = make_record(segment=1), make_record(segment=2)
    mgr.add_records([r1], 0)
    mgr.add_records([r2], 0)
    mgr.flush_segment(1, 0)
    mgr.flush_segment(2, 0)
    geo = ssd.device.geometry
    assert geo.block_of_page(r1.flash_ppa) != geo.block_of_page(r2.flash_ppa)


def test_flush_empty_segment_is_noop(ssd):
    assert ssd.deltas.flush_segment(9, now_us=5) == 5


def test_drop_segment_erases_blocks_and_kills_records(ssd):
    mgr = ssd.deltas
    flushed = make_record(ts=1, segment=1)
    buffered = make_record(ts=2, segment=1)
    mgr.add_records([flushed], 0)
    mgr.flush_segment(1, 0)
    mgr.add_records([buffered], 0)
    free_before = ssd.block_manager.free_block_count
    erased = mgr.drop_segment(1, now_us=0)
    assert erased == 1
    assert flushed.dropped and buffered.dropped
    assert ssd.block_manager.free_block_count == free_before + 1
    assert mgr.segment_blocks(1) == set()


def test_drop_unknown_segment_is_noop(ssd):
    assert ssd.deltas.drop_segment(1234, now_us=0) == 0


def test_oversized_record_still_stored_one_per_page(ssd):
    mgr = ssd.deltas
    big = make_record(size=10 * mgr.usable_page_bytes())
    mgr.add_records([big], 0)
    mgr.add_records([make_record(ts=2)], 0)  # forces flush of the big one
    assert mgr.flushed_pages.value == 1
