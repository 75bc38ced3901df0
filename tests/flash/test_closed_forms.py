"""Closed forms: a simple scenario's simulated microseconds, as a formula.

The timing model is analytic (``flash/timing.py``), so on an idle device
a simple scenario has an exact answer in :class:`FlashTiming` terms.
Each row names the scenario, its formula and the measured value, and
runs on every bench device that has the feature (a TimeKits row on the
TimeSSD one); equality is exact.
"""

import pytest

from repro.bench.config import (
    bench_geometry,
    make_bench_regular,
    make_bench_timessd,
)
from repro.common.errors import QueryError
from repro.flash.timing import FlashTiming
from repro.ftl.block_manager import BlockKind
from repro.nvme.commands import StatusCode
from repro.timekits.api import TimeKits
from repro.timessd.delta import DELTA_METADATA_BYTES

from tests.nvme.test_path_equivalence import drive

BENCH_DEVICES = [
    pytest.param(make_bench_regular, id="regular"),
    pytest.param(make_bench_timessd, id="timessd"),
]


def idle_now(ssd):
    """A time at which every channel and chip lane is free."""
    device = ssd.device
    return 1 + max(
        tl.busy_until(lane)
        for tl in (device.timelines, device.chip_timelines)
        for lane in range(tl.channels)
    )


def victim_with_valid_pages(ssd, valid):
    """A sealed data block holding ``valid`` valid pages; every other page
    of it is stale and costs the reclaim nothing (the PRT marks it)."""
    geo = ssd.device.geometry
    for lpa in range(geo.channels * geo.pages_per_block):
        ssd.write(lpa)
    pba = geo.block_of_page(ssd.mapping.lookup(0))
    assert pba in ssd.block_manager.sealed_blocks(BlockKind.DATA)
    lpas = [ssd.device.core.lpa[ppa] for ppa in geo.pages_of_block(pba)]
    for lpa in lpas[valid:]:
        ssd.trim(lpa)
    for ppa in geo.pages_of_block(pba):
        if not ssd.block_manager.valid[ppa]:
            ssd.block_manager.mark_reclaimable(ppa)
    return pba


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
@pytest.mark.parametrize("valid", [0, 1, 7, 32])
def test_gc_round_is_one_cursor_of_reads_and_programs_then_the_erase(
    make_device, valid
):
    """Algorithm 1's cursor on one lane: each valid page is read (sense,
    then bus), its copy programmed (bus, then cell) once the read
    completes, then the next page; the erase is issued once the last
    copy is durable.  Background GC admits the round by the bound of one
    whose every page is also compressed; with and without a bus.

    ``complete = now + v * (read_us + 2 * bus + program_us) + erase_us
    <= now + gc_round_bound_us(pages_per_block)``
    """
    for bus in (0, 35):
        ssd = make_device(timing=FlashTiming(bus_transfer_us=bus))
        pba = victim_with_valid_pages(ssd, valid)
        timing = ssd.device.timing
        now = idle_now(ssd)
        outcome = ssd.relocate_block(pba, now)
        assert outcome.migrated_valid == valid
        booked = outcome.complete_us - now
        assert booked == valid * (
            timing.read_us + 2 * bus + timing.program_us
        ) + timing.erase_us
        assert booked <= ssd.gc_round_cost_bound() == timing.gc_round_bound_us(
            ssd.device.geometry.pages_per_block
        )


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
@pytest.mark.parametrize("route", ["ssd", "submit", "async"])
def test_an_idle_host_read_is_one_sense_and_one_transfer(make_device, route):
    """A host read of a mapped page on idle lanes, at queue depth 1: the
    cell sense on its chip, then the data transfer on its channel.

    ``read = read_us + bus_transfer_us``
    """
    ssd = make_device()
    page = bytes(ssd.device.geometry.page_size)
    ssd.write(3, page)
    ssd.clock.advance_to(idle_now(ssd))
    timing = ssd.device.timing
    assert drive(route, ssd, [("R", 3, 1)]) == [
        (StatusCode.SUCCESS, [page], timing.read_us + timing.bus_transfer_us)
    ]


def lpa_with_data_page_versions(k):
    """A TimeSSD bench device whose LPA 5 holds ``k`` versions, all on
    data pages (no GC has run), and a clock at which every lane is idle.
    Returns the device and the versions' stamps, oldest first."""
    ssd = make_bench_timessd()
    stamps = []
    for _ in range(k):
        stamps.append(ssd.clock.now_us)
        ssd.write(5)
        ssd.clock.advance(1000)
    ssd.clock.advance_to(idle_now(ssd))
    return ssd, stamps


@pytest.mark.parametrize("k, j", [(1, 0), (2, 1), (4, 0), (4, 2), (4, 3)])
def test_as_of_reads_one_page_per_hop_to_its_answer(k, j):
    """A walk down ``k`` data-page versions to the ``j``-th newest is
    ``j + 1`` dependent reads; an answer of "absent" reads all ``k``.

    ``as_of(j-th newest) = (j + 1) * read_us``, ``as_of(absent) = k * read_us``
    """
    ssd, stamps = lpa_with_data_page_versions(k)
    kits, read_us = TimeKits(ssd), ssd.device.timing.read_us
    result = kits.as_of([5], stamps[k - 1 - j])
    assert result.value[5].timestamp_us == stamps[k - 1 - j]
    assert result.elapsed_us == (j + 1) * read_us
    result = kits.as_of([5], stamps[0] - 1)
    assert result.value[5] is None
    assert result.elapsed_us == k * read_us


@pytest.mark.parametrize("k, j", [(2, 1), (4, 1), (4, 3)])
def test_rollback_is_its_as_of_walk_then_one_program(k, j):
    """A rollback to an older version bills its ``as_of`` walk, then the
    write-back of one page.

    ``rollback_lpas(j-th newest) = (j + 1) * read_us + program_us``
    """
    ssd, stamps = lpa_with_data_page_versions(k)
    timing = ssd.device.timing
    result = TimeKits(ssd).rollback_lpas([5], stamps[k - 1 - j])
    assert result.elapsed_us == (j + 1) * timing.read_us + timing.program_us


def test_a_refused_query_costs_nothing():
    """``t`` before the guaranteed start is refused before the walk.

    ``as_of(t < window start) = 0``
    """
    ssd, _stamps = lpa_with_data_page_versions(4)
    now, reads = ssd.clock.now_us, ssd.device.page_reads.value
    with pytest.raises(QueryError):
        TimeKits(ssd).as_of([5], ssd.retention.window_start_us() - 1)
    assert (ssd.clock.now_us, ssd.device.page_reads.value) == (now, reads)


def lpa_with_compressed_history(rounds, k):
    """A TimeSSD bench device after ``rounds`` of: write ``k`` versions of
    LPA 5, compress the retained ones into deltas, flush them to a delta
    page.  Then ``k`` more versions stay on data pages, and the clock is
    moved to where every lane is idle."""
    ssd = make_bench_timessd()

    def write_versions():
        for _ in range(k):
            ssd.write(5)
            ssd.clock.advance(1000)

    for _ in range(rounds):
        write_versions()
        retained = ssd.device.core.back_pointer[ssd.mapping.lookup(5)]
        assert ssd.compress_or_lose(retained, ssd.clock.now_us)[1] >= 1
        for segment_id in sorted(ssd.deltas.live_segment_ids()):
            ssd.deltas.flush_segment(segment_id, ssd.clock.now_us)
    write_versions()
    ssd.clock.advance_to(idle_now(ssd))
    return ssd


@pytest.mark.parametrize("rounds, k", [(1, 2), (1, 4), (2, 3)])
def test_a_chain_walk_reads_each_page_once_then_decompresses(rounds, k):
    """A walk over ``h`` data pages and ``d`` compressed deltas packed in
    ``p`` flushed delta pages reads each page once, then runs the
    decompressor once per delta; a stamp-only walk only reads.

    ``walk(bytes) = (h + p) * read_us + d * delta_decompress_us``,
    ``walk(stamps) = (h + p) * read_us``
    """
    ssd = lpa_with_compressed_history(rounds, k)
    h = len(list(ssd.index.older_versions(5, ssd.mapping.lookup(5))))
    records = list(ssd.index.live_deltas(ssd.index.delta_head(5)))
    assert all(r.compressed and r.flash_ppa is not None for r in records)
    d, p = len(records), len({r.flash_ppa for r in records})
    assert (h, d, p) == (k + 1, rounds * k - 1, rounds)
    timing = ssd.device.timing
    now = ssd.clock.now_us
    versions, complete = ssd.version_chain(5, now)
    assert len(versions) == h + d
    assert complete == now + (h + p) * timing.read_us + d * timing.delta_decompress_us
    now = idle_now(ssd)
    versions, complete = ssd.version_chain(5, now, payloads=False)
    assert len(versions) == h + d
    assert complete == now + (h + p) * timing.read_us


@pytest.mark.parametrize("k", [0, 1, 2])
def test_compressing_a_retained_chain_reads_it_then_compresses_it(k):
    """Algorithm 1's compression of a retained page with ``k`` older
    uncompressed versions below it: the retained page and each older
    one are read down the chain, then the current version (the
    reference), then each of the ``k + 1`` versions is delta-compressed;
    no delta page fills, so nothing is programmed.

    ``compress_or_lose = (k + 2) * read_us + (k + 1) * delta_compress_us``
    """
    ssd, _stamps = lpa_with_data_page_versions(k + 2)
    core, timing = ssd.device.core, ssd.device.timing
    retained = core.back_pointer[ssd.mapping.lookup(5)]
    programs = ssd.device.page_programs.value
    now = ssd.clock.now_us
    complete, compressed = ssd.compress_or_lose(retained, now)
    assert compressed == k + 1
    assert ssd.device.page_programs.value == programs
    assert complete == (
        now + (k + 2) * timing.read_us + (k + 1) * timing.delta_compress_us
    )


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
@pytest.mark.parametrize("route", ["ssd", "submit", "async"])
def test_an_idle_host_write_is_one_transfer_and_one_program(make_device, route):
    """A host overwrite of one page on idle lanes, at queue depth 1: the
    data transfer on its channel, then the cell program on its chip.

    ``write = bus_transfer_us + program_us``
    """
    ssd = make_device()
    page = bytes(ssd.device.geometry.page_size)
    ssd.write(3, page)
    ssd.clock.advance_to(idle_now(ssd))
    timing = ssd.device.timing
    programs = ssd.device.page_programs.value
    assert drive(route, ssd, [("W", 3, [page])]) == [
        (StatusCode.SUCCESS, 1, timing.bus_transfer_us + timing.program_us)
    ]
    assert ssd.device.page_programs.value == programs + 1


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
def test_an_idle_erase_is_one_erase_on_its_chip(make_device):
    """The tail of every reclaim on an idle block: the erase occupies its
    chip, and the block returns to the free pool.

    ``erase_and_release = erase_us``
    """
    ssd = make_device()
    pba = victim_with_valid_pages(ssd, 0)
    now = idle_now(ssd)
    free = ssd.block_manager.free_block_count
    assert ssd.erase_and_release(pba, now) == now + ssd.device.timing.erase_us
    assert ssd.block_manager.kind(pba) is BlockKind.FREE
    assert ssd.block_manager.free_block_count == free + 1


def test_compressing_a_chain_that_fills_a_delta_page_adds_one_program():
    """Algorithm 1's compression of a retained page with k = 3 older
    versions, whose k + 1 records do not fit in one delta page: after the
    reads and the compressions, the records that fill the segment's
    buffer are programmed as one delta page at that cursor, and the one
    that did not fit stays buffered.

    ``compress_or_lose = (k + 2) * read_us + (k + 1) * delta_compress_us
    + bus_transfer_us + program_us``
    """
    k = 3
    ssd, _stamps = lpa_with_data_page_versions(k + 2)
    core, timing, deltas = ssd.device.core, ssd.device.timing, ssd.deltas
    retained = core.back_pointer[ssd.mapping.lookup(5)]
    programs = ssd.device.page_programs.value
    now = ssd.clock.now_us
    complete, compressed = ssd.compress_or_lose(retained, now)
    assert compressed == k + 1
    records = list(ssd.index.live_deltas(ssd.index.delta_head(5)))
    footprint = sum(r.size_bytes + DELTA_METADATA_BYTES for r in records)
    assert footprint > deltas.usable_page_bytes()
    # Newest first: three fill the page, the oldest opens the next one.
    assert [r.flash_ppa is None for r in records] == [False, False, False, True]
    assert deltas.flushed_pages.value == 1
    assert ssd.device.page_programs.value == programs + 1
    assert complete == now + (k + 2) * timing.read_us + (k + 1) * (
        timing.delta_compress_us
    ) + timing.bus_transfer_us + timing.program_us


# --- The firmware's admission bounds (``FlashTiming``'s closed forms) ------
#
# Each bound is held to the bookings it admits: exact where the scenario
# is its worst case, at least the booked time otherwise, with and without
# a bus term (every booked read and program carries one).

BUS = pytest.mark.parametrize("bus", [0, 35], ids=["bus0", "bus35"])


def with_bus(make_device, bus, **overrides):
    return make_device(timing=FlashTiming(bus_transfer_us=bus), **overrides)


@BUS
def test_the_chain_bound_is_exact_when_a_lone_record_fills_a_delta_page(bus):
    """Compressing a retained page with k = 0 older versions, on idle
    lanes: two reads (the page, the reference), one compression, and —
    for the record that fills the segment's delta page — one program.
    The idle compressor admits the page by exactly this.

    ``compress_or_lose(k = 0, flush) = chain_bound_us(0)
    = 2 * (read_us + bus) + delta_compress_us + bus + program_us``
    """
    ssd = with_bus(make_bench_timessd, bus)
    timing = ssd.device.timing
    bound = timing.chain_bound_us(0)
    assert bound == 2 * (timing.read_us + bus) + (
        timing.delta_compress_us + bus + timing.program_us
    )
    for _ in range(2):
        for lpa in range(16):
            ssd.write(lpa)
    for lpa in range(16):
        retained = ssd.device.core.back_pointer[ssd.mapping.lookup(lpa)]
        assert ssd.settle_cost_bound(retained) == bound
        flushed = ssd.deltas.flushed_pages.value
        now = idle_now(ssd)
        complete, compressed = ssd.compress_or_lose(retained, now)
        assert compressed == 1
        if ssd.deltas.flushed_pages.value > flushed:
            assert complete == now + bound
            return
        # No page filled: the bound less one program.
        assert complete == now + bound - (bus + timing.program_us)
    pytest.fail("no record filled a delta page")


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
@pytest.mark.parametrize("page", ["valid", "stale"])
@BUS
def test_a_scrub_step_is_within_its_bound(make_device, page, bus):
    """A forced refresh of one page on idle lanes: the patrol read, then
    a valid page's copy program, or the stale-page rule (on TimeSSD the
    compression of the retained version: two reads and a compression).
    The scrubber admits the step by the full ladder plus the refresh.

    ``scrub(valid) = read_us + 2 * bus + program_us``,
    ``scrub(stale) <= scrub_step_bound_us(read_retry_limit, settle)``
    """
    ssd = with_bus(make_device, bus, patrol_scrub=True)
    for _ in range(2):
        for lpa in range(8):
            ssd.write(lpa)
    head = ssd.mapping.lookup(3)
    ppa = head if page == "valid" else ssd.device.core.back_pointer[head]
    timing = ssd.device.timing
    settle = ssd.settle_cost_bound(ppa)
    bound = ssd.scrubber._step_bound(ppa)
    assert bound == timing.scrub_step_bound_us(ssd.config.read_retry_limit, settle)
    now = idle_now(ssd)
    booked = ssd.scrubber._scrub_page(ppa, now, force_refresh=True) - now
    if page == "valid":
        assert booked == timing.read_us + 2 * bus + timing.program_us
    elif settle:
        assert booked == 3 * (timing.read_us + bus) + timing.delta_compress_us
    else:  # the baseline retains nothing: the patrol read alone
        assert booked == timing.read_us + bus
    assert booked <= bound


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
@BUS
def test_demand_paged_translation_is_one_lump_before_the_page(make_device, bus):
    """With a mapping cache far smaller than the working set, each host
    op misses and evicts a dirty entry: it first waits for one
    translation-page read and one write-back, booked as one lump on one
    channel without bus terms (DESIGN.md), then does its own flash op.

    ``read = translation_us(1, 1) + read_us + bus``,
    ``write = translation_us(1, 1) + bus + program_us``,
    ``translation_us(r, w) = r * read_us + w * program_us``
    """
    ssd = with_bus(make_device, bus, mapping_cache_entries=8)
    for lpa in range(64):
        ssd.write(lpa)
    mapping, timing = ssd.mapping, ssd.device.timing
    ops = [
        ("R", 0, timing.read_us + bus),
        ("W", 1, bus + timing.program_us),
        ("R", 40, timing.read_us + bus),
    ]
    for kind, lpa, own_us in ops:
        ssd.clock.advance_to(idle_now(ssd))
        before = (mapping.translation_reads, mapping.translation_writes)
        if kind == "R":
            latency = ssd.read(lpa)[1]
        else:
            latency = ssd.write(lpa)
        after = (mapping.translation_reads, mapping.translation_writes)
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
        assert latency == timing.translation_us(1, 1) + own_us
    assert timing.translation_us(3, 2) == 3 * timing.read_us + 2 * timing.program_us


@pytest.mark.parametrize("make_device", BENCH_DEVICES)
def test_a_bus_transfer_overlaps_a_sibling_chips_program(make_device):
    """Two chips on one channel, ``bus_transfer_us > 0``: a host read
    arriving with a host write whose page is on the sibling chip senses
    on its own chip and moves its data over the channel while the write's
    cell program runs, so neither waits for the other.

    ``write = bus + program_us``, ``read = read_us + bus`` (both at once)
    """
    ssd = with_bus(make_device, 35, geometry=bench_geometry(chips_per_channel=2))
    geo = ssd.device.geometry
    page = bytes(geo.page_size)
    mapped = range(3 * geo.channels * geo.pages_per_block)
    for lpa in mapped:
        ssd.write(lpa, page)
    now = idle_now(ssd)
    timing = ssd.device.timing
    complete = ssd.serve_write_at(len(mapped), page, now)
    assert complete == now + timing.bus_transfer_us + timing.program_us

    def lanes_of(lpa):
        return geo.chip_of_block(geo.block_of_page(ssd.mapping.lookup(lpa)))

    channel, chip = lanes_of(len(mapped))
    sibling = next(lpa for lpa in mapped if lanes_of(lpa) == (channel, 1 - chip))
    _data, complete = ssd.serve_read_at(sibling, now)
    assert complete == now + timing.read_us + timing.bus_transfer_us
