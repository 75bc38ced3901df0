"""Closed forms: a simple scenario's simulated microseconds, as a formula.

The timing model is analytic (``flash/timing.py``), so on an idle device
a simple scenario has an exact answer in :class:`FlashTiming` terms.
Each row names the scenario, its formula and the measured value, and
runs on every bench device that has the feature (a TimeKits row on the
TimeSSD one); equality is exact.
"""

import pytest

from repro.bench.config import make_bench_regular, make_bench_timessd
from repro.common.errors import QueryError
from repro.ftl.block_manager import BlockKind
from repro.nvme.commands import StatusCode
from repro.timekits.api import TimeKits

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
    """Algorithm 1's cursor on one lane: each valid page is read, its copy
    programmed once the read completes, then the next page; the erase is
    issued once the last copy is durable.

    ``complete = now + v * (read_us + program_us) + erase_us``
    """
    ssd = make_device()
    pba = victim_with_valid_pages(ssd, valid)
    timing = ssd.device.timing
    now = idle_now(ssd)
    outcome = ssd.relocate_block(pba, now)
    assert outcome.migrated_valid == valid
    assert outcome.complete_us == (
        now + valid * (timing.read_us + timing.program_us) + timing.erase_us
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
