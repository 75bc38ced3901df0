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

import random

import pytest

from repro.common.errors import AddressError, PowerCutError, UncorrectableReadError
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.core import ColumnarFlashArray
from repro.flash.device import FlashDevice
from repro.flash.page import PageState
from repro.ftl.block_manager import BlockKind
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss

from tests.conftest import make_timessd

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


def reference_window(ssd, start_us, deadline_us):
    """The view-walking loop ``background_compress`` replaced, verbatim."""
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
    assert got["consumed_us"] == 9495
    assert got["compressed"] == list(range(192, 204))
    # Each compression also retires the older versions on its chain.
    assert got["newly_reclaimable"] == [
        54, 75, 82, 88, 89, 100, 113, 114, 126, 129, 130, 134, 141, 155,
        172, 178, *range(192, 204), 211, 214, 244,
    ]
    assert got["expired"] == 10
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


def test_exhausted_blocks_cost_no_seal_check_and_no_flash_read(monkeypatch):
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
    calls = {"intact_at": 0, "read_page": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(ColumnarFlashArray, "intact_at")
    counting(FlashDevice, "read_page")
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
        with pytest.raises(AddressError):
            index.walk_data_chain(0, ppa, 0)
