import random

import pytest

from repro.common.errors import InvalidPageError, RetentionViolationError
from repro.common.units import SECOND_US
from repro.flash.page import NULL_PPA
from repro.ftl.block_manager import BlockKind
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD

from tests.conftest import churn_real_content, make_timessd, small_geometry


def test_requires_timessd_config():
    from repro.ftl.ssd import SSDConfig

    with pytest.raises(TypeError):
        TimeSSD(SSDConfig(geometry=small_geometry()))


def test_behaves_like_regular_ssd_for_current_data():
    ssd = make_timessd(content_mode=ContentMode.REAL)
    page = bytes(512)
    ssd.write(3, page)
    assert ssd.read(3)[0] == page
    ssd.trim(3)
    assert ssd.read(3)[0] is None


def test_real_content_refuses_a_wrong_sized_page_before_admission():
    # A short page used to be programmed and only failed later, inside
    # the GC pass that tried to delta-compress it.
    ssd = make_timessd(content_mode=ContentMode.REAL)
    for bad in (b"ab", bytes(513), None, "x" * 512):
        with pytest.raises(InvalidPageError):
            ssd.write(0, bad)
    assert ssd.mapping.lookup(0) == NULL_PPA
    assert ssd.host_pages_written == 0
    assert ssd.device.page_programs.value == 0
    ssd.write(0, bytearray(512))
    assert ssd.read(0)[0] == bytes(512)


def test_version_chain_without_gc():
    ssd = make_timessd()
    stamps = []
    for _ in range(5):
        ssd.write(9)
        stamps.append(ssd.clock.now_us)
        ssd.clock.advance(1000)
    versions, _ = ssd.version_chain(9)
    assert [v.source for v in versions][0] == "current"
    got = [v.timestamp_us for v in versions]
    assert got == sorted(got, reverse=True)
    assert len(got) == 5


def test_invalidation_registers_in_bloom():
    ssd = make_timessd()
    ssd.write(2)
    old_ppa = ssd.mapping.lookup(2)
    ssd.clock.advance(10)
    ssd.write(2)
    assert ssd.blooms.is_retained(old_ppa)
    assert ssd.retained_pages == 1


def test_trim_is_retained_too():
    ssd = make_timessd()
    ssd.write(2)
    old_ppa = ssd.mapping.lookup(2)
    ssd.trim(2)
    assert ssd.blooms.is_retained(old_ppa)


def churn(ssd, working_set, writes, seed=11, gap_us=1500):
    rng = random.Random(seed)
    history = {}
    for lpa in range(working_set):
        # OOB timestamps are stamped at program time (request arrival).
        history.setdefault(lpa, []).append(ssd.clock.now_us)
        ssd.write(lpa)
        ssd.clock.advance(gap_us)
    for _ in range(writes):
        lpa = rng.randrange(working_set)
        history.setdefault(lpa, []).append(ssd.clock.now_us)
        ssd.write(lpa)
        ssd.clock.advance(gap_us)
    return history


class TestRetentionUnderGC:
    def test_versions_survive_gc_as_deltas(self):
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            retention_floor_us=3600 * SECOND_US,
        )
        history = churn(ssd, working_set=ssd.logical_pages // 3, writes=2000)
        assert ssd.gc_runs > 0
        window_start = ssd.blooms.window_start_us()
        for lpa, stamps in history.items():
            versions, _ = ssd.version_chain(lpa)
            got = {v.timestamp_us for v in versions}
            # Every version invalidated inside the window must survive.
            # Version k is invalidated when version k+1 is written.
            for k, ts in enumerate(stamps[:-1]):
                if stamps[k + 1] > window_start:
                    assert ts in got, "lost version of lpa %d" % lpa
            assert stamps[-1] in got  # current version always present

    def test_chain_strictly_newest_first(self):
        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        churn(ssd, ssd.logical_pages // 3, 500)
        for lpa in range(0, ssd.logical_pages // 3, 7):
            versions, _ = ssd.version_chain(lpa)
            stamps = [v.timestamp_us for v in versions]
            assert stamps == sorted(set(stamps), key=lambda s: -s)

    def test_real_content_roundtrips_through_deltas(self):
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
        rng = random.Random(2)
        content = {}
        working = ssd.logical_pages // 3
        base = {lpa: bytearray(rng.randrange(256) for _ in range(512)) for lpa in range(working)}
        for step in range(5 * working):
            lpa = rng.randrange(working)
            page = bytearray(base[lpa])
            # Mutate ~2% of bytes: realistic content locality.
            for _ in range(12):
                page[rng.randrange(512)] = rng.randrange(256)
            base[lpa] = page
            payload = bytes(page)
            content.setdefault(lpa, {})[ssd.clock.now_us] = payload
            ssd.write(lpa, payload)
            ssd.clock.advance(1500)
        assert ssd.gc_runs > 0
        checked = 0
        for lpa in list(content)[:40]:
            versions, _ = ssd.version_chain(lpa)
            for v in versions:
                expected = content[lpa].get(v.timestamp_us)
                if expected is not None:
                    assert v.data == expected
                    checked += 1
        assert checked > 40  # plenty of historical versions verified

    def test_delta_blocks_never_gc_victims(self):
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            retention_floor_us=3600 * SECOND_US,
        )
        churn(ssd, ssd.logical_pages // 3, 2000)
        victim = ssd.block_manager.select_greedy_victim(BlockKind.DATA)
        if victim is not None:
            assert ssd.block_manager.kind(victim) is not BlockKind.DELTA


class TestWindowShrinking:
    def test_overload_triggers_shrinks(self):
        ssd = make_timessd(retention_floor_us=0)
        churn(ssd, ssd.logical_pages // 2, 3000, gap_us=100)
        assert ssd.obs.metrics.counter("timessd.retention.shrinks").value > 0

    def test_expired_versions_disappear(self):
        ssd = make_timessd(retention_floor_us=0, bloom_capacity=64)
        history = churn(ssd, ssd.logical_pages // 2, 3000, gap_us=100)
        window_start = ssd.blooms.window_start_us()
        assert window_start > 0
        hot = max(history, key=lambda lpa: len(history[lpa]))
        versions, _ = ssd.version_chain(hot)
        assert len(versions) < len(history[hot])

    def test_floor_violation_stops_service(self):
        ssd = make_timessd(retention_floor_us=10**15)  # absurd floor
        with pytest.raises(RetentionViolationError) as excinfo:
            churn(ssd, ssd.logical_pages // 2, 5000, gap_us=10)
        assert excinfo.value.floor_us == 10**15

    def test_retention_window_metric_grows_without_pressure(self):
        ssd = make_timessd()
        ssd.write(0)
        ssd.clock.advance(10_000)
        ssd.write(0)
        assert ssd.retention_window_us() > 0


class TestBackgroundCompression:
    def test_idle_gaps_run_background_work(self):
        ssd = make_timessd()
        rng = random.Random(5)
        for lpa in range(200):
            ssd.write(lpa % 50)
            ssd.clock.advance(50_000)  # long, predictable idleness
        assert ssd.background_windows > 0
        assert ssd.background_compressed > 0

    def test_background_work_fits_inside_gap(self):
        ssd = make_timessd()
        for lpa in range(100):
            ssd.write(lpa % 20)
            before_busy = max(
                ssd.device.timelines.busy_until(c)
                for c in range(ssd.device.geometry.channels)
            )
            ssd.clock.advance(50_000)
            # Background work during the gap may not push channel
            # occupancy past the next arrival.
            assert before_busy <= ssd.clock.now_us

    def test_disabled_background_compression(self):
        ssd = make_timessd(background_compression=False)
        for lpa in range(200):
            ssd.write(lpa % 50)
            ssd.clock.advance(50_000)
        assert ssd.background_compressed == 0


class TestAccounting:
    def test_retained_counter_never_negative(self):
        ssd = make_timessd(retention_floor_us=0)
        churn(ssd, ssd.logical_pages // 2, 2000, gap_us=300)
        assert ssd.retained_pages >= 0
        assert all(v >= 0 for v in ssd._retained_per_block.values())

    def test_wa_at_least_regular(self):
        from tests.conftest import fill_and_churn, make_regular_ssd

        time_ssd = make_timessd(retention_floor_us=2 * SECOND_US)
        regular = make_regular_ssd()
        working = regular.logical_pages // 2
        fill_and_churn(time_ssd, working, 2500, gap_us=400)
        fill_and_churn(regular, working, 2500, gap_us=400)
        assert time_ssd.write_amplification >= regular.write_amplification * 0.95

    def test_estimator_sees_gc_ops(self):
        ssd = make_timessd(gc_overhead_period_writes=64, retention_floor_us=0)
        churn(ssd, ssd.logical_pages // 2, 2000, gap_us=200)
        assert ssd.estimator.periods_evaluated > 0
        assert ssd.gc_runs > 0


def test_stamp_only_walk_reads_what_the_full_walk_reads_never_decompresses():
    """``payloads=False`` is the same walk over the same pages: same
    versions, same sources, same page reads.  It hands out no bytes, so
    it runs no decompressor and finishes no later than the full walk."""

    def twin():
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
        history = churn_real_content(ssd, ssd.logical_pages // 3, 2000)
        return ssd, history

    full, history = twin()
    stamp_only, _ = twin()
    with_deltas = sorted(full.index.delta_head_lpas())
    assert with_deltas
    decompressions = full.deltas_decompressed
    faster = 0
    for lpa in with_deltas:
        for until_ts in (None, history[lpa][len(history[lpa]) // 2]):
            got, got_us = stamp_only.version_chain(
                lpa, until_ts=until_ts, payloads=False
            )
            want, want_us = full.version_chain(lpa, until_ts=until_ts)
            assert [(v.timestamp_us, v.source) for v in got] == [
                (v.timestamp_us, v.source) for v in want
            ]
            assert got_us <= want_us
            faster += got_us < want_us
            assert all(v.data is None for v in got)
            assert all(v.data is not None for v in want)
    assert faster
    assert full.deltas_decompressed > decompressions
    assert stamp_only.deltas_decompressed == decompressions
    assert stamp_only.device.page_reads.value == full.device.page_reads.value
    assert (
        stamp_only.metrics_snapshot()["histograms"]["timessd.chain.length"]
        == full.metrics_snapshot()["histograms"]["timessd.chain.length"]
    )
