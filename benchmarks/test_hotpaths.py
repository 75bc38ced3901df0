"""Microbenchmarks for the PR 8 hot paths.

Each benchmark times one of the loops the columnar core was built for:
the bulk OOB sweep, batch sequence-tag verification, mapping lookups,
GC victim selection and the idle-window page filter.  Unlike the
``test_fig*`` experiments these use pytest-benchmark's normal
multi-round timing — the operations are cheap and side-effect-free, so
repetition is meaningful.
"""

import random
from array import array

import pytest

from repro.flash.core import verify_seq_tags
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timessd.config import TimeSSDConfig
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
        now = ssd._background_compress(now, now + 10**9)
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

    end = benchmark(ssd._background_compress, now, now + 10**6)
    assert end == now
