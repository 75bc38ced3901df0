"""``TimeKits.walk_many`` takes its page reader once per vendor command.

The reader every walk of a command reads through, with its ladder
decision and the lock check in front of it, is taken once, by
``TimeSSD.history_reader``, and handed to each ``version_chain``.  The
loop it replaced, in which every LPA's walk took its own, is kept here
as ``_reference_walk_many``: on a churned REAL-content device (a TRIMmed
LPA, flushed and RAM deltas) the two must return the same chains and end
time and leave every lane, the flash read count and the whole metrics
snapshot the same.
"""

import functools

import pytest

from repro.common.errors import QueryError
from repro.common.units import SECOND_US
from repro.timekits.api import TimeKits, check_threads
from repro.timessd.config import ContentMode
from tests.conftest import make_timessd, small_geometry
from tests.timessd.test_column_loops import (
    build_history_device,
    lanes_of,
    walk_state,
)


def _reference_walk_many(kit, lpas, threads=1, until_ts=None, payloads=True):
    """``walk_many`` as it was: one ``version_chain`` call per LPA, each
    taking its own reader behind its own lock check."""
    check_threads(threads)
    ssd = kit.ssd
    page_reads = ssd.device.page_reads
    start = ssd.clock.now_us
    reads_before = page_reads.value
    decompressed_before = ssd.deltas_decompressed
    passed_before = ssd.deltas_passed
    delta_pages = set()
    cursors = [start] * min(threads, len(lpas))
    chains = {}
    for i, lpa in enumerate(lpas):
        k = i % len(cursors)
        versions, complete = ssd.version_chain(
            lpa,
            cursors[k],
            until_ts=until_ts,
            payloads=payloads,
            delta_pages=delta_pages,
        )
        cursors[k] = complete
        chains[lpa] = versions
    end = max(cursors) if cursors else start
    ssd.clock.advance_to(end)
    kit._last_pages_touched = page_reads.value - reads_before
    if kit._walk_metrics is None:
        metrics = ssd.obs.metrics
        kit._walk_metrics = (
            metrics.counter("timekits.walk.deltas_passed"),
            metrics.counter("timekits.walk.deltas_decompressed"),
            metrics.counter("timekits.walk.delta_pages_read"),
            metrics.gauge("timekits.walk.delta_pages_buffered"),
        )
    passed, decompressed, pages_read, buffered = kit._walk_metrics
    passed.inc(ssd.deltas_passed - passed_before)
    decompressed.inc(ssd.deltas_decompressed - decompressed_before)
    pages_read.inc(len(delta_pages))
    buffered.set(max(buffered.value, len(delta_pages)))
    return chains, end - start


@pytest.fixture(scope="module")
def history_pair():
    """Two identical churned devices, their toolkits and query stamps;
    the second walks through the reference loop."""
    got, stamps = build_history_device()
    want, _ = build_history_device()
    kits = TimeKits(got), TimeKits(want)
    kits[1].walk_many = functools.partial(_reference_walk_many, kits[1])
    return kits, stamps


@pytest.mark.parametrize("payloads", [True, False])
@pytest.mark.parametrize("mid_window", [False, True])
@pytest.mark.parametrize("threads", [1, 4, 8])
def test_the_bound_walk_is_the_per_lpa_walk(history_pair, threads, mid_window, payloads):
    (got_kit, want_kit), stamps = history_pair
    got, want = got_kit.ssd, want_kit.ssd
    assert walk_state(got) == walk_state(want)  # earlier cases kept step
    lpas = got.lpas_with_history()
    assert any(not got.mapping.is_mapped(lpa) for lpa in lpas)  # a TRIM
    records = [
        record
        for lpa in lpas
        for record in got.index.live_deltas(got.index.delta_head(lpa))
    ]
    assert any(record.flash_ppa is not None for record in records)
    assert any(record.flash_ppa is None for record in records)
    until_ts = stamps[1] if mid_window else None
    answers = [
        kit.walk_many(lpas, threads, until_ts, payloads)
        for kit in (got_kit, want_kit)
    ]
    assert answers[0] == answers[1]
    assert got.clock.now_us == want.clock.now_us
    assert lanes_of(got) == lanes_of(want)
    assert got.device.page_reads.value == want.device.page_reads.value
    assert got_kit._last_pages_touched == want_kit._last_pages_touched
    assert walk_state(got) == walk_state(want)


def test_a_locked_device_refuses_the_command_before_any_read():
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=32),
        content_mode=ContentMode.REAL,
        retention_floor_us=3600 * SECOND_US,
        retention_key=b"k" * 16,
    )
    page_size = ssd.device.geometry.page_size
    for version in range(6):
        ssd.write(4, bytes([version]) * page_size)
        ssd.clock.advance(1000)
    kit = TimeKits(ssd)
    before = walk_state(ssd)
    for threads in (1, 4):
        with pytest.raises(QueryError):
            kit.walk_many([4, 5], threads)
        with pytest.raises(QueryError):
            _reference_walk_many(kit, [4, 5], threads)
    assert walk_state(ssd) == before
    # A command naming no LPA walks nothing, so it is not refused.
    assert kit.walk_many([]) == _reference_walk_many(kit, []) == ({}, 0)


def test_only_the_timed_walk_fills_the_seal_memo():
    """GC's chain compression and the churn's other seal checks leave the
    hop memo empty; a walk of every LPA's chain fills it with exactly the
    pages its hops verified, on the data-page chain and on every
    tombstone's branch."""
    ssd, _stamps = build_history_device()
    core = ssd.device.core
    assert core._sealed.count(None) == core.total_pages
    lpas = ssd.lpas_with_history()
    index = ssd.index
    hopped = set()
    for lpa in lpas:
        hopped.update(index.older_versions(lpa, ssd.mapping.lookup(lpa)))
        for record in index.live_deltas(index.delta_head(lpa)):
            if record.data_back is not None:
                hopped.update(
                    index.older_versions(lpa, record.data_back, record.version_ts)
                )
    assert hopped  # the churn left retained pages to hop through
    TimeKits(ssd).walk_many(lpas, 4)
    memoized = {g for g, oob in enumerate(core._sealed) if oob is not None}
    assert memoized == hopped
