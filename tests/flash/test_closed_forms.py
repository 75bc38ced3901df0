"""Closed forms: a simple scenario's simulated microseconds, as a formula.

The timing model is analytic (``flash/timing.py``), so on an idle device
a simple scenario has an exact answer in :class:`FlashTiming` terms.
Each row names the scenario, its formula and the measured value, and
runs on both bench devices; equality is exact.
"""

import pytest

from repro.bench.config import make_bench_regular, make_bench_timessd
from repro.ftl.block_manager import BlockKind

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
