"""The firmware's per-page loops, pinned page by page.

``TimeSSD.background_compress``, ``BaseSSD.relocate_block``
and ``TimeTravelIndex.older_versions`` read the flash columns, the
PVT bytes and the PRT set directly.  The view-walking code they replaced
— one ``peek_page`` view per page, the idle budget gate evaluated before
every page — is kept here as the reference: on a seeded device with a
torn program, recovery's conservative blooms and expired segments, an
idle window must compress the same pages in the same order, expire the
same pages and stop at the same cursor, for budgets that end the window
early, mid-block and never.
"""

import functools
import math
import random

import pytest

from repro.common.errors import AddressError, PowerCutError, UncorrectableReadError
from repro.common.units import SECOND_US
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.core import ColumnarFlashArray
from repro.flash.device import FlashDevice
from repro.flash.page import NULL_PPA, PageState
from repro.flash.reliability import FlashReliability
from repro.ftl.block_manager import BlockKind
from repro.timekits.api import TimeKits
from repro.timessd.config import ContentMode
from repro.timessd.index import Version
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss

from tests.conftest import churn_real_content, make_timessd, small_geometry

WORKING_SET = 96


def build_device():
    """Seeded churn → torn host program → recovery → churn → expiry.

    Background work is off while the history is written, so the window
    under test finds every kind of page: valid, already reclaimable
    (recovery's duplicates), retained, expired (four bloom segments are
    dropped at the end) and one torn page whose group a live bloom
    segment still answers "retained" for.
    """
    plan = FaultPlan(seed=3)
    ssd = make_timessd(
        faults=FaultHooks(plan),
        background_compression=False,
        background_gc=False,
    )
    ssd.IDLE_SCAN_BLOCKS = 32
    rng = random.Random(11)
    for lpa in range(WORKING_SET):
        ssd.write(lpa)
        ssd.clock.advance(1500)
    for _ in range(150):
        ssd.write(rng.randrange(WORKING_SET))
        ssd.clock.advance(20_000)
    plan.add_torn_program(at_op=plan.ops_seen + 1)
    with pytest.raises(PowerCutError):
        ssd.write(5)
    simulate_power_loss(ssd)
    assert rebuild_from_flash(ssd)["torn_pages"] == 1
    for _ in range(200):
        ssd.write(rng.randrange(WORKING_SET))
        ssd.clock.advance(20_000)
    while ssd._shrink_retention(ssd.clock.now_us) is not None:
        pass
    ssd.config.background_compression = True  # the window under test
    return ssd


def step_bound(ssd):
    timing = ssd.device.timing
    return 3 * timing.read_us + timing.delta_compress_us + timing.program_us


def torn_ppas(ssd):
    core = ssd.device.core
    return [
        ppa
        for ppa in range(core.total_pages)
        if core.state[ppa] and not core.intact_at(ppa)
    ]


def chain_bound(ssd, page):
    """What compressing ``page``'s chain may cost, counted over page
    views: k older versions are k + 2 reads and k + 1 compressions, each
    of which may flush a delta page."""
    lpa, back, newer_ts = page.oob.lpa, page.oob.back_pointer, page.oob.timestamp_us
    k = 0
    while back != NULL_PPA:
        older = ssd.device.peek_page(back)
        if (
            ssd.block_manager.reclaimable[back]
            or older.state is not PageState.PROGRAMMED
            or older.oob is None
            or not older.oob.intact
            or older.oob.lpa != lpa
            or older.oob.timestamp_us >= newer_ts
        ):
            break
        k += 1
        back, newer_ts = older.oob.back_pointer, older.oob.timestamp_us
    timing = ssd.device.timing
    return (k + 2) * timing.read_us + (k + 1) * (
        timing.delta_compress_us + timing.program_us
    )


def reference_window(ssd, start_us, deadline_us):
    """The view-walking loop ``background_compress`` replaced, with the
    same admission: a floor of one step for every page, and for a
    retained one its chain's bound."""
    ssd.background_windows += 1
    bound = step_bound(ssd)
    t = start_us
    for pba in ssd._background_victims():
        for ppa in ssd.device.geometry.pages_of_block(pba):
            if t + bound > deadline_us:
                return t
            page = ssd.device.peek_page(ppa)
            if page.state is not PageState.PROGRAMMED:
                continue
            if page.oob is None or not page.oob.intact:
                continue
            if ssd.block_manager.is_valid(ppa) or ssd.block_manager.reclaimable[ppa]:
                continue
            if ssd.blooms.find_segment(ppa) is None:
                if ssd.block_manager.mark_reclaimable(ppa):
                    ssd._m_expired.inc()
                    ssd.note_page_no_longer_retained(ppa)
                continue
            if t + chain_bound(ssd, page) > deadline_us:
                continue
            try:
                t, compressed = ssd.collector.compress_version_chain(ppa, t)
            except UncorrectableReadError:
                ssd.block_manager.mark_reclaimable(ppa)
                ssd.note_page_no_longer_retained(ppa)
                ssd._m_compress_lost.inc()
                continue
            ssd.background_compressed += compressed
    return t


def prt(ssd):
    """The PPAs the PRT column marks."""
    return {ppa for ppa, bit in enumerate(ssd.block_manager.reclaimable) if bit}


def run_window(ssd, window, budget_us):
    """Run one window; returns what it did, observed from outside."""
    compressed = []
    original = ssd.collector.compress_version_chain

    def spy(ppa, now_us):
        compressed.append(ppa)
        return original(ppa, now_us)

    ssd.collector.compress_version_chain = spy
    start = ssd.clock.now_us
    before = prt(ssd)
    try:
        end = window(ssd, start, start + budget_us)
    finally:
        del ssd.collector.compress_version_chain
    return {
        "consumed_us": end - start,
        "compressed": compressed,
        "newly_reclaimable": sorted(prt(ssd) - before),
        "expired": ssd.obs.metrics.counter("timessd.expire.pages").value,
        "retained_pages": ssd.retained_pages,
        "metrics": ssd.metrics_snapshot(),
    }


def column_window(ssd, start_us, deadline_us):
    return ssd.background_compress(start_us, deadline_us)


@pytest.mark.parametrize("steps", [1, 3, 9, 200])
def test_window_matches_the_view_walking_reference(steps):
    budget = steps * step_bound(build_device())
    got = run_window(build_device(), column_window, budget)
    want = run_window(build_device(), reference_window, budget)
    assert got == want
    assert 0 < got["consumed_us"] <= budget
    assert got["compressed"] and got["expired"]


def test_one_window_outcome_is_pinned_exactly():
    ssd = build_device()
    (torn,) = torn_ppas(ssd)
    assert ssd.device.geometry.block_of_page(torn) in ssd._background_victims()
    assert ssd.blooms.find_segment(torn) is not None  # the forgery hazard
    got = run_window(ssd, column_window, 10_000)
    # 202 and 203 head chains whose bound (3 855 µs each) exceeds the
    # 3 205 µs left: the window leaves them whole and spends the rest on
    # 204 (2 910 µs), on the next block's 80 and 81, and on expiries.
    assert got["consumed_us"] == 9495
    assert got["compressed"] == [*range(192, 202), 204, 80, 81]
    # Each compression also retires the older versions on its chain.
    assert got["newly_reclaimable"] == [
        18, 75, 80, 81, 82, 88, 89, 100, 113, 114, *range(128, 144), 157,
        172, 178, *range(192, 202), 204, 211, 244,
    ]
    assert got["expired"] == 21
    # The rest of the work fits one long window; the torn page is never
    # compressed, expired or marked, however long the window.
    rest = run_window(ssd, column_window, 10_000_000)
    assert rest["consumed_us"] < 10_000_000
    assert torn not in got["compressed"] + rest["compressed"]
    assert not ssd.block_manager.reclaimable[torn]
    assert ssd._background_victims() == []


def test_window_shorter_than_one_step_marks_nothing():
    ssd = build_device()
    before = run_window(ssd, lambda *_: ssd.clock.now_us, 0)
    got = run_window(ssd, column_window, step_bound(ssd) - 1)
    assert got["consumed_us"] == 0
    assert got["compressed"] == [] and got["newly_reclaimable"] == []
    assert got["expired"] == before["expired"]
    assert got["metrics"] == before["metrics"]


@pytest.fixture
def counted(monkeypatch):
    """``(calls, count)``: ``count(cls, name)`` counts the calls of
    ``cls.name`` in ``calls[name]``."""
    calls = {}

    def count(cls, name):
        original = getattr(cls, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    return calls, count


def test_exhausted_blocks_cost_no_seal_check_and_no_flash_read(counted):
    ssd = build_device()
    run_window(ssd, column_window, 10_000_000)
    (torn,) = torn_ppas(ssd)
    exhausted = [
        pba
        for pba in ssd.block_manager.sealed_blocks(BlockKind.DATA)
        if pba != ssd.device.geometry.block_of_page(torn)
    ][:8]
    # A census that over-counts (it is only ever a victim-ordering hint)
    # keeps the blocks on the victim list although every page in them is
    # valid, compressed or expired.
    for pba in exhausted:
        ssd._retained_per_block[pba] = 1
    assert set(ssd._background_victims()) == set(exhausted)
    calls, count = counted
    count(ColumnarFlashArray, "intact_at")
    count(FlashDevice, "read_page")
    got = run_window(ssd, column_window, 10_000_000)
    assert calls == {"intact_at": 0, "read_page": 0}
    assert got["consumed_us"] == 0 and got["newly_reclaimable"] == []


def test_reclaim_dispatches_every_page_of_the_torn_block():
    ssd = build_device()
    run_window(ssd, column_window, 10_000_000)  # retained pages → PRT
    (torn,) = torn_ppas(ssd)
    geo = ssd.device.geometry
    pba = geo.block_of_page(torn)
    programmed = ssd.device.core.write_pointer[pba]
    valid = ssd.block_manager.valid_count(pba)
    assert 0 < valid < programmed - 1
    outcome = ssd.relocate_block(pba, ssd.clock.now_us)
    assert outcome.discarded_garbage == 1
    assert outcome.migrated_valid == valid
    assert outcome.discarded_reclaimable == programmed - valid - 1
    assert outcome.discarded_expired == outcome.compressed == 0
    assert ssd.device.core.write_pointer[pba] == 0
    reclaimable = ssd.block_manager.reclaimable
    assert not any(reclaimable[ppa] for ppa in geo.pages_of_block(pba))


def test_chain_hop_check_matches_the_page_view():
    ssd = build_device()
    run_window(ssd, column_window, 10_000)  # some pages now reclaimable
    core, index = ssd.device.core, ssd.index

    def by_view(ppa, lpa, newer_ts):
        if ssd.block_manager.reclaimable[ppa]:
            return False
        page = ssd.device.peek_page(ppa)
        if page.state is not PageState.PROGRAMMED or not page.oob.intact:
            return False
        return page.oob.lpa == lpa and page.oob.timestamp_us < newer_ts

    hops = 0
    for ppa in range(core.total_pages):
        lpa, ts = core.lpa[ppa], core.timestamp_us[ppa]
        for ask_lpa, newer_ts in ((lpa, ts + 1), (lpa, ts), (lpa + 1, ts + 1)):
            hop = next(index.older_versions(ask_lpa, ppa, newer_ts), None)
            got = hop == ppa
            assert got is by_view(ppa, ask_lpa, newer_ts)
            hops += got
    assert hops > 100
    for ppa in (-2, core.total_pages):
        with pytest.raises(AddressError):
            next(index.older_versions(0, ppa, 1))
        with pytest.raises(AddressError):  # the timed walk's hop read
            ssd.device.read_page(ppa, 0)


# --- the timed chain walk ------------------------------------------------------


def _reference_data_chain(ssd, lpa, head, t, until_ts, newer_ts=math.inf):
    """``walk_data_chain`` as it was: one billed read per hop through
    ``read_page_with_retry``, then the page taken from its ``peek_page``
    view (not from the columns the walk reads); returns ``(entries, t)``
    with ``(ppa, oob, data)`` entries, newest first."""
    entries = []
    for ppa in ssd.index.older_versions(lpa, head, newer_ts):
        t = ssd.read_page_with_retry(ppa, t)[0]
        page = ssd.device.peek_page(ppa)
        entries.append((ppa, page.oob, page.data))
        if until_ts is not None and page.oob.timestamp_us <= until_ts:
            break
    return entries, t


def reference_version_chain(
    ssd, lpa, start_us, until_ts=None, payloads=True, delta_pages=None
):
    """The view-building walk ``version_chain`` replaced (no retention
    key): the data-page chain, then ``walk_delta_chain`` — every delta
    page and tombstone branch read first — then the decompressions."""
    versions, by_ts = [], {}

    def take_page(oob, data, source):
        data = data if payloads else None
        versions.append(Version(lpa, oob.timestamp_us, data, source))
        by_ts[oob.timestamp_us] = data

    entries, t = _reference_data_chain(
        ssd, lpa, ssd.mapping.lookup(lpa), start_us, until_ts
    )
    for i, (_ppa, oob, data) in enumerate(entries):
        take_page(oob, data, "data-page" if i else "current")
    if until_ts is not None and versions and versions[-1].timestamp_us <= until_ts:
        ssd._h_query_chain.record(len(versions))
        return versions, t

    entries = []
    if delta_pages is None:
        delta_pages = set()
    for record in ssd.index.live_deltas(ssd.index.delta_head(lpa)):
        if record.flash_ppa is not None and record.flash_ppa not in delta_pages:
            t = ssd.read_page_with_retry(record.flash_ppa, t)[0]
            delta_pages.add(record.flash_ppa)
        entries.append(record)
        if until_ts is not None and record.version_ts <= until_ts:
            break
        if record.data_back is not None:
            branch, t = _reference_data_chain(
                ssd, lpa, record.data_back, t, until_ts, record.version_ts
            )
            entries += branch
            if until_ts is not None and branch and branch[-1][1].timestamp_us <= until_ts:
                break

    device = ssd.device
    for record in entries:
        if type(record) is tuple:  # a tombstone's deleted data page
            _ppa, oob, data = record
            take_page(oob, data, "data-page")
            continue
        ssd.deltas_passed += 1
        if record.data_back is not None:
            versions.append(Version(lpa, record.version_ts, None, "deleted"))
            continue
        if record.version_ts in by_ts:
            continue
        data = None
        if payloads:
            data = record.payload
            if record.compressed:
                data = ssd.deltas.codec.decompress(data, by_ts.get(record.ref_ts))
        if record.compressed and payloads:
            ssd.deltas_decompressed += 1
            decompress_us = device.timing.delta_decompress_us
            if record.flash_ppa is None:  # a RAM delta: no flash channel
                t += decompress_us
            else:
                channel = device.geometry.channel_of_page(record.flash_ppa)
                t = device.timelines.schedule(channel, t, decompress_us)
        source = "delta" if record.flash_ppa is not None else "delta-ram"
        versions.append(Version(lpa, record.version_ts, data, source))
        by_ts[record.version_ts] = data
    ssd._h_query_chain.record(len(versions))
    return versions, t


def build_history_device(reliability=None):
    """A churned REAL-content device whose histories hold every kind of
    hop: data-page chains, flushed and RAM deltas, and tombstones (some
    followed by a rewrite); returns ``(ssd, stamps)`` where ``stamps``
    are query times spread over the history."""
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=32),
        content_mode=ContentMode.REAL,
        retention_floor_us=3600 * SECOND_US,
        reliability=reliability,
    )
    start = ssd.clock.now_us
    churn_real_content(ssd, ssd.logical_pages // 3, 1500)
    rng = random.Random(5)
    page_size = ssd.device.geometry.page_size
    for lpa in rng.sample(range(ssd.logical_pages // 3), 24):
        ssd.trim(lpa)
        ssd.clock.advance(1500)
        if lpa % 2:
            ssd.write(lpa, rng.randbytes(page_size))
            ssd.clock.advance(1500)
    end = ssd.clock.now_us
    return ssd, [start + (end - start) * k // 4 for k in range(1, 4)]


def walk_state(ssd):
    """Everything a walk may move, observed from outside."""
    device = ssd.device
    lanes = [
        (tuple(lane.pending), lane.busy_us, lane.max_depth)
        for timelines in (device.timelines, device.chip_timelines)
        for lane in map(timelines.lane, range(timelines.channels))
    ]
    return {
        "lanes": lanes,
        "metrics": ssd.metrics_snapshot(),
        "deltas": (ssd.deltas_passed, ssd.deltas_decompressed),
        "now_us": ssd.clock.now_us,
    }


@pytest.mark.parametrize(
    "reliability",
    [
        None,
        # Every read needs one rung of the retry ladder.
        FlashReliability(
            raw_bit_error_rate=8e-3,
            ecc_correctable_bits=8,
            retry_ber_factor=0.1,
            seed=0xA11,
        ),
    ],
    ids=["clean-media", "marginal-media"],
)
def test_version_chain_matches_the_read_result_walk(reliability):
    got, _ = build_history_device(reliability)
    want, stamps = build_history_device(reliability)
    want.version_chain = functools.partial(reference_version_chain, want)
    lpas = got.lpas_with_history()
    assert lpas == want.lpas_with_history()
    records = [
        record
        for lpa in lpas
        for record in got.index.live_deltas(got.index.delta_head(lpa))
    ]
    assert any(record.data_back is not None for record in records)
    assert any(record.flash_ppa is not None for record in records)
    assert any(record.flash_ppa is None for record in records)
    for until_ts in [None] + stamps:
        for payloads in (True, False):
            answers = [
                TimeKits(ssd).walk_many(lpas, 3, until_ts, payloads)
                for ssd in (got, want)
            ]
            assert answers[0] == answers[1], (until_ts, payloads)
            assert walk_state(got) == walk_state(want)
    # Bare walks, each with its own delta-page buffer.
    for lpa in lpas[::7]:
        start = got.clock.now_us
        assert got.version_chain(lpa, start) == want.version_chain(lpa, start)
    assert walk_state(got) == walk_state(want)
    if reliability is not None:
        assert walk_state(got)["metrics"]["counters"]["reliability.retry_reads"]


def channel_busy(ssd):
    timelines = ssd.device.timelines
    return [timelines.lane(c).busy_us for c in range(timelines.channels)]


def test_a_ram_delta_decode_books_no_flash_channel():
    """A RAM-buffered delta never crosses a flash channel: decoding it
    advances the walk's cursor by ``delta_decompress_us`` and leaves
    every channel's lane as the walk's page reads left it."""
    ssd = make_timessd(content_mode=ContentMode.REAL)
    page = bytearray(ssd.device.geometry.page_size)
    for version in range(4):  # one byte apart: small deltas, kept in RAM
        page[version] = 1
        ssd.write(5, bytes(page))
        ssd.clock.advance(1000)
    retained = ssd.device.core.back_pointer[ssd.mapping.lookup(5)]
    assert ssd.compress_or_lose(retained, ssd.clock.now_us)[1] == 3
    records = list(ssd.index.live_deltas(ssd.index.delta_head(5)))
    assert records and all(r.compressed and r.flash_ppa is None for r in records)

    def walk(payloads):
        device = ssd.device
        start = 1 + max(  # every lane idle
            timelines.busy_until(lane)
            for timelines in (device.timelines, device.chip_timelines)
            for lane in range(timelines.channels)
        )
        before = channel_busy(ssd)
        versions, complete = ssd.version_chain(5, start, payloads=payloads)
        moved = [b - a for a, b in zip(before, channel_busy(ssd))]
        return versions, complete - start, moved

    _stamps, read_us, read_moved = walk(payloads=False)
    versions, walk_us, moved = walk(payloads=True)
    assert [v.source for v in versions].count("delta-ram") == len(records)
    assert moved == read_moved
    decode_us = len(records) * ssd.device.timing.delta_decompress_us
    assert walk_us == read_us + decode_us


def test_no_firmware_read_builds_a_view(counted):
    """A host read, a GC chain compression, a timed chain walk and a
    scrub read each take what they read from the columns: every one
    reads flash, and none builds an ``OOBMetadata`` view."""
    ssd = make_timessd(
        content_mode=ContentMode.REAL,
        patrol_scrub=True,
        reliability=FlashReliability(raw_bit_error_rate=1e-12),
    )
    rng = random.Random(4)
    page_size = ssd.device.geometry.page_size
    for _ in range(4):
        ssd.write(5, rng.randbytes(page_size))
        ssd.clock.advance(1000)
    head = ssd.mapping.lookup(5)
    retained = ssd.device.core.back_pointer[head]
    calls, count = counted
    count(ColumnarFlashArray, "oob_at")
    count(FlashDevice, "read_page")
    readers = {
        "host read": lambda: ssd.read(5),
        "version_chain": lambda: ssd.version_chain(5),
        "GC chain compression": lambda: ssd.compress_or_lose(
            retained, ssd.clock.now_us
        ),
        "scrub read": lambda: ssd.scrubber._scrub_page(head, ssd.clock.now_us),
    }
    for name, read in readers.items():
        calls.update(oob_at=0, read_page=0)
        read()
        assert calls["read_page"] >= 1, name
        assert calls["oob_at"] == 0, name
