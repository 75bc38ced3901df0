"""Microbenchmarks for the hot paths.

Each benchmark times one of the loops the columnar core was built for
(PR 8: the bulk OOB sweep, batch sequence-tag verification, mapping
lookups, GC victim selection, the idle-window page filter) or one
function of the per-op kernel (PR 13: a page read, a page program, a
greedy victim pick on a full device, a negative bloom lookup), so a
regression names its function.  Unlike the ``test_fig*`` experiments
these use pytest-benchmark's normal multi-round timing — the operations
are cheap and repeatable, so repetition is meaningful.
"""

import random
from array import array

import pytest

from repro.bench.config import make_bench_timessd, prefill
from repro.common.clock import SimClock
from repro.flash.core import verify_seq_tags
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timekits.api import TimeKits
from repro.timessd import lzf
from repro.timessd.bloom import TimeSegmentedBlooms
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.delta import RealDeltaCodec
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.ssd import TimeSSD


def hot_geometry():
    return FlashGeometry(
        channels=8, blocks_per_plane=48, pages_per_block=32, page_size=4096
    )


@pytest.fixture(scope="module")
def churned_ssd():
    ssd = RegularSSD(SSDConfig(geometry=hot_geometry()))
    rng = random.Random(2)
    working = ssd.logical_pages // 2
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(700)
    for _ in range(4000):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(700)
    return ssd


def test_oob_sweep(benchmark, churned_ssd):
    """Full-device bulk OOB sweep (the recovery/scrub primitive)."""
    device = churned_ssd.device

    def sweep():
        total = 0
        for scan in device.scan_oob():
            total += sum(scan.intact)
        return total

    assert benchmark(sweep) > 0


def test_timessd_power_cycle(benchmark):
    """One power cut and rebuild of a churned, checkpointing TimeSSD —
    the whole recovery path (sweep, chain relink, the three bulk table
    loads), as the ``crash-loop`` ledger workload runs it."""
    ssd = make_bench_timessd(checkpoint_interval_blocks=16)
    rng = random.Random(3)
    working = ssd.logical_pages // 2
    prefill(ssd, working)
    for _ in range(12000):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(700)

    def power_cycle():
        simulate_power_loss(ssd)
        return rebuild_from_flash(ssd)

    first = power_cycle()
    assert first["checkpoint_seq"] is not None and first["delta_records"] > 0
    stats = benchmark(power_cycle)
    # Nothing is written between rounds: every rebuild sees the same flash.
    for key in ("scanned_blocks", "summarized_blocks", "mapped_lpas"):
        assert stats[key] == first[key] > 0


def test_batch_seq_tag_verification(benchmark):
    """verify_seq_tags over 64k pages of synthetic OOB columns."""
    n = 65536
    lpas, backs, tss, seqs = (array("q", bytes(8 * n)) for _ in range(4))
    for i in range(n):
        oob = OOBMetadata(lpa=i, back_pointer=NULL_PPA, timestamp_us=i * 3)
        if i % 7 == 0:
            oob = oob.as_torn()
        lpas[i] = oob.lpa
        backs[i] = oob.back_pointer
        tss[i] = oob.timestamp_us
        seqs[i] = oob.seq_tag - ((1 << 64) if oob.seq_tag >> 63 else 0)

    flags = benchmark(verify_seq_tags, lpas, backs, tss, seqs)
    assert sum(flags) == n - len(range(0, n, 7))


def test_mapping_lookup(benchmark, churned_ssd):
    """Hot-path L2P lookups over the mapped working set."""
    mapping = churned_ssd.mapping
    lpas = [lpa for lpa in range(churned_ssd.logical_pages)][:2048]

    def lookups():
        hits = 0
        for lpa in lpas:
            if mapping.lookup(lpa) is not None:
                hits += 1
        return hits

    assert benchmark(lookups) > 0


def test_gc_victim_selection(benchmark, churned_ssd):
    """Greedy victim selection over the sealed-block population."""
    bm = churned_ssd.block_manager

    result = benchmark(bm.select_greedy_victim)
    assert result is not None


@pytest.fixture(scope="module")
def steady_timessd():
    """A TimeSSD in the idle-window steady state: every retained page of
    its victim blocks is already compressed, so a window only filters."""
    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=hot_geometry(),
            retention_floor_us=3600 * 1_000_000,
            background_gc=False,
            idle_scan_blocks=64,
        )
    )
    rng = random.Random(2)
    working = ssd.logical_pages // 4
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(700)
    for _ in range(3000):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(700)
    now = ssd.clock.now_us
    while ssd._background_victims():  # exhaust every candidate
        now = ssd.background_compress(now, now + 10**9)
    ssd.clock.advance_to(now)
    # Keep the sealed blocks on the victim list (the census only orders
    # victims), as blocks with a few fresh candidates are in a real run.
    for pba in list(ssd.block_manager.sealed_blocks(BlockKind.DATA))[:64]:
        ssd._retained_per_block[pba] = 1
    return ssd


def test_idle_window_scan(benchmark, steady_timessd):
    """One idle window over 64 victim blocks with no candidate left:
    the per-page filter cost every real window pays before it finds the
    few pages worth compressing."""
    ssd = steady_timessd
    assert len(ssd._background_victims()) == 64
    now = ssd.clock.now_us

    end = benchmark(ssd.background_compress, now, now + 10**6)
    assert end == now


# --- The per-op kernel (PR 13) ------------------------------------------------

KERNEL_OPS = 2048


def test_read_page(benchmark, churned_ssd):
    """``FlashDevice.read_page`` x 2048 over programmed pages: lane
    lookups, two timeline schedules, one histogram record, and the two
    values a read allocates (``OOBMetadata`` + ``ReadResult``)."""
    device = churned_ssd.device
    mapping = churned_ssd.mapping
    ppas = [mapping.lookup(lpa) for lpa in range(KERNEL_OPS)]
    assert NULL_PPA not in ppas
    now = churned_ssd.clock.now_us

    def reads():
        read_page = device.read_page
        for ppa in ppas:
            read_page(ppa, now)

    benchmark(reads)


def test_program_page(benchmark):
    """``FlashDevice.program_page`` x 2048 on a fresh device per round
    (set-up is not timed): the column writes plus the same timing and
    metrics bookkeeping a read does, allocating nothing."""
    geometry = hot_geometry()
    oob = OOBMetadata(lpa=1, back_pointer=NULL_PPA, timestamp_us=5)

    def fresh_device():
        return (FlashDevice(geometry),), {}

    def programs(device):
        program_page = device.program_page
        for ppa in range(KERNEL_OPS):
            program_page(ppa, None, oob, 0)

    benchmark.pedantic(programs, setup=fresh_device, rounds=30)


def test_greedy_victim_full_device(benchmark):
    """One greedy pick over a device with no free block: every block is
    sealed and holds a stale page, the last one holds two."""
    ssd = RegularSSD(SSDConfig(geometry=hot_geometry(), background_gc=False))
    bm = ssd.block_manager
    geo = ssd.device.geometry
    oob = OOBMetadata(lpa=0)
    for _ in range(geo.total_pages):
        ppa = bm.allocate_page_keyed("fill", BlockKind.DATA)
        ssd.device.program_page(ppa, None, oob, 0)
        bm.mark_valid(ppa)
    assert len(bm.sealed_blocks(BlockKind.DATA)) == geo.total_blocks
    last = geo.total_blocks - 1
    for pba in range(geo.total_blocks):
        bm.invalidate_page(geo.first_page_of_block(pba))
    bm.invalidate_page(geo.first_page_of_block(last) + 1)

    assert benchmark(bm.select_greedy_victim) == last


def test_negative_find_segment(benchmark):
    """``find_segment`` x 2048 for groups in none of 14 live segments —
    the common GC/idle-window answer ("expired"): every filter probed,
    most probes over after one or two bit tests."""
    clock = SimClock()
    blooms = TimeSegmentedBlooms(clock, capacity_per_filter=512, group_size=16, seed=7)
    ppa = 0
    while len(blooms) < 14 or not blooms.live_segments()[-1].bloom.count:
        blooms.record_invalidation(ppa)
        ppa += 16
    assert len(blooms) == 14
    absent = [ppa + 16 * i for i in range(1, 8 * KERNEL_OPS)]
    absent = [p for p in absent if blooms.find_segment(p) is None][:KERNEL_OPS]
    assert len(absent) == KERNEL_OPS

    def lookups():
        find_segment = blooms.find_segment
        hits = 0
        for p in absent:
            if find_segment(p) is not None:
                hits += 1
        return hits

    assert benchmark(lookups) == 0


# --- The TimeKits query path (PR 20) ------------------------------------------

QUERY_PAGE = 1024


def mutate(rng, page, fraction):
    """Rewrite ``fraction`` of ``page``'s bytes in place (content locality)."""
    changes = int(len(page) * fraction)
    positions = rng.sample(range(len(page)), changes)
    for position, value in zip(positions, rng.randbytes(changes)):
        page[position] = value


@pytest.fixture(scope="module")
def compressed_history_ssd():
    """An 8 MiB REAL-content TimeSSD whose retained history GC has
    compressed into XOR+LZF deltas."""
    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=FlashGeometry(
                channels=8, blocks_per_plane=16, pages_per_block=64,
                page_size=QUERY_PAGE,
            ),
            retention_floor_us=3600 * 1_000_000,
            content_mode=ContentMode.REAL,
        )
    )
    rng = random.Random(2)
    working = ssd.logical_pages // 3
    pages = [bytearray(rng.randbytes(QUERY_PAGE)) for _ in range(working)]
    for lpa, page in enumerate(pages):
        ssd.write(lpa, bytes(page))
        ssd.clock.advance(700)
    for _ in range(4 * working):
        lpa = rng.randrange(working)
        mutate(rng, pages[lpa], 0.02)
        ssd.write(lpa, bytes(pages[lpa]))
        ssd.clock.advance(700)
    assert ssd.index.imt_size() > working // 2
    return ssd


def test_time_query_full_scan(benchmark, compressed_history_ssd, monkeypatch):
    """``time_query_all`` over every LPA with 8 threads — Table 3's full
    scan.  The answer is LPAs and timestamps, so the walk neither bills
    a decompression nor runs the host codec once."""
    ssd = compressed_history_ssd
    kit = TimeKits(ssd)
    decodes = []
    decompress = RealDeltaCodec.decompress

    def counting(codec, payload, ref_data):
        decodes.append(payload[0])
        return decompress(codec, payload, ref_data)

    monkeypatch.setattr(RealDeltaCodec, "decompress", counting)
    billed = ssd.device.counters.delta_decompressions

    result = benchmark(kit.time_query_all, threads=8)
    assert len(result.value) == ssd.logical_pages // 3
    assert ssd.device.counters.delta_decompressions == billed
    assert decodes == []
    kit.addr_query_all(0, cnt=64)
    assert decodes  # the wrapper does see the queries that carry bytes
    assert ssd.device.counters.delta_decompressions == billed + len(decodes)


def test_lzf_decode_page(benchmark):
    """``lzf.decompress`` of one XOR delta: a 1 KiB page against a copy
    with 10 % of its bytes rewritten — the blob shape the ``timekits``
    ledger workload decodes, a few hundred two-byte tokens."""
    rng = random.Random(2)
    old = bytearray(rng.randbytes(QUERY_PAGE))
    new = bytearray(old)
    mutate(rng, new, 0.1)
    mode, blob = RealDeltaCodec(QUERY_PAGE).compress(bytes(old), bytes(new))[0]
    assert mode == "xor" and len(blob) < QUERY_PAGE // 2

    diff = benchmark(lzf.decompress, blob, QUERY_PAGE)
    assert len(diff) == QUERY_PAGE
