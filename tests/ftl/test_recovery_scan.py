"""The columnar OOB sweep against the per-page reduce it replaced.

``sweep_oob`` takes a checkpoint summary's columns and mask whole and
reduces a scanned block to the same columns.  ``_reference_sweep`` is
the sweep as it was before: every vouched-for page one ``(ppa, lpa,
ts)`` tuple in a flat list, and a summary read as ``(offset, lpa, ts)``
entries.  Both must give the same heads, ``committed`` column, user
pages, housekeeping pages and torn count on every kind of mount.
"""

import random

import pytest

from repro.common.errors import AddressError
from repro.common.units import SECOND_US
from repro.flash.page import NULL_PPA
from repro.ftl import checkpoint as checkpointing
from repro.ftl import recovery as ftl_recovery
from repro.ftl.block_manager import BlockKind
from repro.ftl.recovery_scan import OOBSweep, sweep_oob
from repro.timessd import recovery as timessd_recovery

from tests.conftest import make_regular_ssd, make_timessd, small_geometry


def _reference_sweep(ssd, collect_housekeeping=False):
    """The reference: ``sweep_oob`` as it reduced pages before the
    columns, tuple by tuple.  Mutates the (fresh) block manager exactly
    as ``sweep_oob`` does, so run it right after a power loss.  Returns
    ``(OOBSweep, user_pages)``, the second the flat tuple list."""
    device = ssd.device
    geo = device.geometry
    core = device.core
    bm = ssd.block_manager
    ppb = geo.pages_per_block
    logical_pages = ssd.logical_pages
    sweep = OOBSweep(geo.total_pages, logical_pages)
    translation_blocks = checkpointing.find_translation_blocks(device)
    image = (
        checkpointing.load_latest_checkpoint(device, translation_blocks)
        if translation_blocks
        else None
    )
    sweep.translation_blocks = translation_blocks
    if image is not None:
        sweep.checkpoint_seq = image.seq
    occupied = []
    condemned = []
    write_pointer = core.write_pointer
    for pba in range(geo.total_blocks):
        in_service = bm.in_service(pba)
        if not in_service:
            condemned.append(pba)
        wp = write_pointer[pba]
        if wp == 0:
            continue
        bm.claim_block(pba)
        if pba in translation_blocks:
            bm.set_kind(pba, BlockKind.TRANSLATION)
            if wp < ppb:
                bm.seal_block(pba)
        elif in_service:
            if wp < ppb:
                sweep.partial_blocks.append(pba)
            occupied.append((pba, checkpointing.summary_for(image, core, pba, ppb)))
    occupied += [
        (pba, None)
        for pba in condemned
        if write_pointer[pba] and pba not in translation_blocks
    ]
    to_scan = [pba for pba, summary in occupied if summary is None]
    sweep.scanned_blocks = len(to_scan)
    sweep.summarized_blocks = len(occupied) - len(to_scan)

    scans = device.scan_oob(to_scan)
    head_ts = sweep.head_ts
    head_ppa = sweep.head_ppa
    user_pages = []
    committed = sweep.committed
    housekeeping = sweep.housekeeping
    try:
        for pba, summary in occupied:
            first = pba * ppb
            if summary is not None:
                sweep.torn_pages += summary.torn_pages
                entries = zip(
                    [ppa - first for ppa in summary.ppa],
                    summary.lpa,
                    summary.timestamp_us,
                )
                for offset, lpa, ts in entries:
                    ppa = first + offset
                    user_pages.append((ppa, lpa, ts))
                    committed[ppa] = 1
                    if ts > head_ts[lpa]:
                        head_ts[lpa] = ts
                        head_ppa[lpa] = ppa
                continue
            scan = next(scans)
            states = scan.state
            columns = zip(scan.intact, scan.lpa, scan.timestamp_us)
            for ppa, (ok, lpa, ts) in enumerate(columns, first):
                if not ok:
                    if states[ppa - first]:
                        sweep.torn_pages += 1
                    continue
                if lpa < 0:
                    if collect_housekeeping:
                        housekeeping.append((pba, ppa, lpa, ts))
                    continue
                user_pages.append((ppa, lpa, ts))
                committed[ppa] = 1
                if ts > head_ts[lpa]:
                    head_ts[lpa] = ts
                    head_ppa[lpa] = ppa
    except IndexError:
        raise AddressError("page %d maps LPA %r" % (ppa, lpa)) from None
    if condemned:
        gone = set(condemned) - {
            ppa // ppb for ppa in head_ppa if ppa != NULL_PPA
        }
        for pba in sorted(gone):
            bm.claim_block(pba)
            bm.release_block(pba)
            committed[pba * ppb:(pba + 1) * ppb] = bytes(ppb)
        sweep.translation_blocks -= gone
        user_pages = [page for page in user_pages if page[0] // ppb not in gone]
        sweep.housekeeping = [
            page for page in housekeeping if page[0] not in gone
        ]
    return sweep, user_pages


def assert_sweeps_agree(ssd, recovery, collect_housekeeping):
    """Power-cycle ``ssd`` twice, sweeping once each way; returns the
    columnar sweep."""
    recovery.simulate_power_loss(ssd)
    reference, user_pages = _reference_sweep(ssd, collect_housekeeping)
    recovery.simulate_power_loss(ssd)
    sweep = sweep_oob(ssd, collect_housekeeping)
    assert len(user_pages) > 0
    assert [list(column) for column in zip(*user_pages)] == [
        list(column) for column in sweep.user_pages
    ]
    for name in (
        "head_ts",
        "head_ppa",
        "committed",
        "housekeeping",
        "torn_pages",
        "partial_blocks",
        "translation_blocks",
        "scanned_blocks",
        "summarized_blocks",
        "checkpoint_seq",
    ):
        assert getattr(sweep, name) == getattr(reference, name), name
    return sweep


def churned(maker=make_timessd, rounds=4, **config):
    """A device whose history reaches delta pages (TimeSSD) and, with a
    checkpoint interval, a checkpoint."""
    if maker is make_timessd:
        config.setdefault("retention_floor_us", 3600 * SECOND_US)
    ssd = maker(geometry=small_geometry(blocks_per_plane=48), **config)
    rng = random.Random(5)
    working = ssd.logical_pages // 3
    for _ in range(working * rounds):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(1500)
    return ssd


@pytest.mark.parametrize("interval", [None, 4], ids=["full-scan", "checkpointed"])
def test_the_columnar_sweep_is_the_tuple_reduce(interval):
    ssd = churned(checkpoint_interval_blocks=interval)
    sweep = assert_sweeps_agree(ssd, timessd_recovery, True)
    assert sweep.housekeeping
    if interval is None:
        assert sweep.summarized_blocks == 0 < sweep.scanned_blocks
    else:
        assert 0 < sweep.scanned_blocks < sweep.summarized_blocks
    regular = churned(make_regular_ssd, checkpoint_interval_blocks=interval)
    assert not assert_sweeps_agree(regular, ftl_recovery, False).housekeeping


def test_the_columnar_sweep_is_the_tuple_reduce_on_damaged_media():
    """A torn tail, and three blocks out of service: a data block that
    holds a head (kept, its pages reported), one that holds none and a
    delta block (both retired at mount, their pages trimmed from every
    column)."""
    ssd = churned(rounds=3, checkpoint_interval_blocks=4)
    geo = ssd.device.geometry
    core = ssd.device.core
    bm = ssd.block_manager
    ppb = geo.pages_per_block

    def blocks(kind, full):
        return [
            pba
            for pba in range(geo.total_blocks)
            if bm.kind(pba) is kind
            and core.write_pointer[pba]
            and (core.write_pointer[pba] == ppb) is full
        ]

    data = blocks(BlockKind.DATA, True)
    holding = next(pba for pba in data if bm.valid_count(pba))
    empty = next(pba for pba in data if not bm.valid_count(pba))
    delta = blocks(BlockKind.DELTA, False)[0]
    partial = blocks(BlockKind.DATA, False)[0]
    torn = partial * ppb + core.write_pointer[partial] - 1
    core.seq_tag[torn] ^= 1  # what a program the cut interrupted leaves
    for pba in (holding, empty, delta):
        core.failed[pba] = 1

    sweep = assert_sweeps_agree(ssd, timessd_recovery, True)
    assert sweep.torn_pages == 1 and not sweep.committed[torn]
    bm = ssd.block_manager
    assert bm.kind(holding) is BlockKind.DATA
    assert bm.kind(empty) is bm.kind(delta) is BlockKind.RETIRED
    user_blocks = {ppa // ppb for ppa in sweep.user_pages[0]}
    assert holding in user_blocks and empty not in user_blocks
    assert sweep.housekeeping
    assert delta not in {pba for pba, _ppa, _tag, _ts in sweep.housekeeping}


def test_every_summary_is_a_fresh_scan_of_its_block():
    """A checkpoint summary's columns and mask are what a scan of its
    block reduces to, page by page: every intact user page's absolute
    PPA, LPA and stamp, and a mask with 1 at exactly those offsets."""
    ssd = churned(checkpoint_interval_blocks=4)
    device = ssd.device
    ppb = device.geometry.pages_per_block
    image = checkpointing.load_latest_checkpoint(
        device, checkpointing.find_translation_blocks(device)
    )
    summaries = {
        pba: summary
        for pba, summary in image.summaries.items()
        if checkpointing.summary_for(image, device.core, pba, ppb) is not None
    }
    summaries.update(ssd.checkpointer._cache)
    assert len(summaries) > 10
    for pba, summary in summaries.items():
        scan = device.scan_block_oob(pba)
        first = pba * ppb
        user = [
            (first + offset, lpa, ts)
            for offset, (ok, lpa, ts) in enumerate(
                zip(scan.intact, scan.lpa, scan.timestamp_us)
            )
            if ok and lpa >= 0
        ]
        assert [list(column) for column in zip(*user)] == [
            list(summary.ppa),
            list(summary.lpa),
            list(summary.timestamp_us),
        ]
        mask = bytearray(ppb)
        for ppa, _lpa, _ts in user:
            mask[ppa - first] = 1
        assert summary.committed == mask
        assert summary.erase_count == scan.erase_count
        assert summary.torn_pages == scan.write_pointer - sum(scan.intact)
