import random

import pytest

from repro.bench.config import make_bench_regular, make_bench_timessd, prefill
from repro.common.errors import AddressError
from repro.flash.page import NULL_PPA
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import RegularSSD, SSDConfig

from tests.conftest import fill_and_churn, make_regular_ssd, small_geometry


def test_config_defaults():
    cfg = SSDConfig(geometry=small_geometry())
    assert 0 < cfg.logical_pages < cfg.geometry.total_pages
    assert cfg.gc_low_watermark >= 4


def test_config_rejects_bad_op_ratio():
    with pytest.raises(ValueError):
        SSDConfig(geometry=small_geometry(), op_ratio=0)


def test_write_then_read_roundtrip(regular_ssd):
    regular_ssd.write(5, b"payload")
    data, response = regular_ssd.read(5)
    assert data == b"payload"
    assert response > 0


def test_read_unwritten_returns_none(regular_ssd):
    data, response = regular_ssd.read(9)
    assert data is None
    assert response == 0


def test_overwrite_returns_latest(regular_ssd):
    regular_ssd.write(5, b"v1")
    regular_ssd.clock.advance(10)
    regular_ssd.write(5, b"v2")
    assert regular_ssd.read(5)[0] == b"v2"


def test_host_reads_mutate_no_flash(regular_ssd):
    # The read path may sense flash and nothing else: a read that
    # programs or erases (a read-disturb "fix" relocating on read) would
    # wear the device and move data under a concurrent reader.
    for lpa in range(64):
        regular_ssd.write(lpa, b"v1")
    device = regular_ssd.device
    counts = (device.page_reads, device.page_programs, device.block_erases)
    before = [count.value for count in counts]
    for lpa in range(64):
        assert regular_ssd.read(lpa)[0] == b"v1"
    assert [count.value for count in counts] == [before[0] + 64] + before[1:]


def test_trim_unmaps(regular_ssd):
    regular_ssd.write(5, b"v1")
    regular_ssd.trim(5)
    assert regular_ssd.read(5)[0] is None


def test_write_advances_clock(regular_ssd):
    t0 = regular_ssd.clock.now_us
    regular_ssd.write(0)
    assert regular_ssd.clock.now_us >= t0 + regular_ssd.device.timing.program_us


def test_oob_back_pointer_chains_versions(regular_ssd):
    regular_ssd.write(7, b"v1")
    ppa1 = regular_ssd.mapping.lookup(7)
    regular_ssd.clock.advance(5)
    regular_ssd.write(7, b"v2")
    ppa2 = regular_ssd.mapping.lookup(7)
    oob = regular_ssd.device.peek_page(ppa2).oob
    assert oob.back_pointer == ppa1
    assert oob.lpa == 7


def test_write_amplification_starts_at_one(regular_ssd):
    for lpa in range(20):
        regular_ssd.write(lpa)
    assert regular_ssd.write_amplification == pytest.approx(1.0)


def test_gc_reclaims_space_under_churn():
    ssd = make_regular_ssd()
    fill_and_churn(ssd, working_set=ssd.logical_pages // 2, churn_writes=ssd.logical_pages * 3)
    assert ssd.gc_runs > 0
    assert ssd.block_manager.free_block_count > ssd.config.gc_low_watermark
    assert ssd.write_amplification >= 1.0


def test_gc_preserves_all_current_data():
    ssd = make_regular_ssd()
    rng = random.Random(4)
    expected = {}
    working = ssd.logical_pages // 2
    for _ in range(ssd.logical_pages * 3):
        lpa = rng.randrange(working)
        payload = b"%d:%d" % (lpa, ssd.clock.now_us)
        ssd.write(lpa, payload)
        expected[lpa] = payload
        ssd.clock.advance(100)
    for lpa, payload in expected.items():
        assert ssd.read(lpa)[0] == payload


@pytest.mark.parametrize("make", [make_bench_regular, make_bench_timessd])
def test_reclaim_programs_each_copy_after_its_read(make):
    # Algorithm 1's cursor on every device: a copy is programmed once its
    # source read has completed, and the victim is erased once its last
    # copy is durable.
    ssd = make(tracing=True, background_gc=False)
    working = ssd.logical_pages * 8 // 10
    prefill(ssd, working)
    rng = random.Random(3)
    for _ in range(working // 2):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(200)
    victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
    migrated = ssd.obs.metrics.counter("gc.pages_migrated")
    before = migrated.value
    ssd.obs.trace.clear()
    ssd.relocate_block(victim, ssd.clock.now_us)
    assert migrated.value > before
    ops = ssd.obs.trace.events("flash-op")
    erase = next(
        i for i, e in enumerate(ops) if e["name"] == "erase" and e["pba"] == victim
    )
    read = program = None
    for event in ops[:erase]:
        if event["name"] == "read":
            read = event
        elif event["name"] == "program":
            program = event
            assert program["start_us"] >= read["t_us"], (read, program)
    assert ops[erase]["start_us"] >= program["t_us"], (program, ops[erase])


def test_latency_reflects_gc_pressure():
    quiet = make_regular_ssd()
    for lpa in range(100):
        quiet.write(lpa)
    busy = make_regular_ssd()
    fill_and_churn(busy, busy.logical_pages // 2, busy.logical_pages * 4, gap_us=0)
    assert busy.write_latency.mean_us > quiet.write_latency.mean_us


def test_out_of_range_lpa_rejected(regular_ssd):
    with pytest.raises(AddressError):
        regular_ssd.write(regular_ssd.logical_pages)


def test_write_range_and_read_range(regular_ssd):
    pages = [b"a", b"b", b"c"]
    regular_ssd.write_range(10, 3, pages)
    data, total = regular_ssd.read_range(10, 3)
    assert data == pages
    assert total > 0


def _erase_spread_after_hot_churn(ssd):
    rng = random.Random(1)
    for lpa in range(ssd.logical_pages // 2):
        ssd.write(lpa)
    for _ in range(ssd.logical_pages * 6):
        ssd.write(rng.randrange(16))
    counts = ssd.device.block_erase_counts()
    return max(counts) - min(counts)


def test_wear_leveling_bounds_spread():
    # Hammer a tiny hot set so unleveled wear concentrates on few blocks.
    leveled = make_regular_ssd()
    leveled.wear_leveler.CHECK_INTERVAL_ERASES = 8
    leveled.wear_leveler.GAP_THRESHOLD = 4
    unleveled = make_regular_ssd()
    unleveled.wear_leveler.CHECK_INTERVAL_ERASES = 10**9
    leveled_spread = _erase_spread_after_hot_churn(leveled)
    unleveled_spread = _erase_spread_after_hot_churn(unleveled)
    assert leveled.wear_leveler.swaps > 0
    assert unleveled.wear_leveler.swaps == 0
    assert leveled_spread < unleveled_spread
    assert leveled_spread <= 8 * leveled.wear_leveler.GAP_THRESHOLD


def test_free_page_estimate_decreases_with_writes(regular_ssd):
    before = regular_ssd.free_page_estimate()
    regular_ssd.write(0)
    assert regular_ssd.free_page_estimate() == before - 1


def test_idle_means_no_admitted_page_still_in_service(regular_ssd):
    ssd = regular_ssd
    t = 1_000
    complete = ssd.serve_write_at(3, b"in-flight", t)
    assert complete > t + 1
    gaps = ssd._idle.observed_gaps
    # A zero-latency TRIM admitted while the write is still in flight
    # (queued commands complete out of order) must not move the idle
    # mark back inside that write, nor count as an idle gap.
    ssd.serve_trim_at(9, t + 1)
    assert ssd._last_io_end_us == complete
    assert ssd._idle.observed_gaps == gaps
    # The next arrival after the write completes sees only the real gap.
    idle = ssd._idle
    expected = idle.alpha * 700 + (1 - idle.alpha) * idle.predicted_us
    ssd.serve_read_at(3, complete + 700)
    assert idle.observed_gaps == gaps + 1
    assert idle.predicted_us == pytest.approx(expected)
