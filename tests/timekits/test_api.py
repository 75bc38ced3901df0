import random

import pytest

from repro.common.errors import DegradedModeError, QueryError
from repro.common.units import SECOND_US
from repro.flash.reliability import FlashReliability
from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.controller import NVMeController
from repro.timekits.api import QueryResult, TimeKits, pick_as_of
from repro.timekits.forensics import ForensicTimeline
from repro.timessd.config import ContentMode
from repro.timessd.delta import RealDeltaCodec
from repro.timessd.index import Version
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.secure import RetentionLock

from tests.conftest import (
    churn_real_content,
    fill_and_churn,
    make_regular_ssd,
    make_timessd,
    small_geometry,
)


@pytest.fixture
def kit():
    ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
    return TimeKits(ssd)


@pytest.fixture
def real_kit():
    """A kit over a device that stores page bytes, so a read shows what
    a rollback restored."""
    ssd = make_timessd(
        retention_floor_us=3600 * SECOND_US, content_mode=ContentMode.REAL
    )
    return TimeKits(ssd)


def real_page(text):
    return text.ljust(512, b"\0")


def write_history(ssd, lpa, n, gap_us=1000):
    stamps = []
    for _ in range(n):
        stamps.append(ssd.clock.now_us)
        ssd.write(lpa)
        ssd.clock.advance(gap_us)
    return stamps


def test_requires_timessd():
    with pytest.raises(QueryError):
        TimeKits(make_regular_ssd())


def testpick_as_of_picks_newest_at_or_before():
    versions = [Version(0, ts, None, "x") for ts in (30, 20, 10)]
    assert pick_as_of(versions, 25).timestamp_us == 20
    assert pick_as_of(versions, 30).timestamp_us == 30
    assert pick_as_of(versions, 5) is None  # nothing written by t
    assert pick_as_of([], 5) is None


class TestAddrQueries:
    def test_addr_query_returns_state_as_of_t(self, kit):
        stamps = write_history(kit.ssd, 4, 5)
        result = kit.addr_query(4, cnt=1, t=stamps[2])
        assert result.value[4].timestamp_us == stamps[2]
        assert result.elapsed_us > 0

    def test_addr_query_range_filters_window(self, kit):
        stamps = write_history(kit.ssd, 4, 6)
        result = kit.addr_query_range(4, 1, stamps[1], stamps[3])
        got = [v.timestamp_us for v in result.value[4]]
        assert got == [stamps[3], stamps[2], stamps[1]]

    def test_addr_query_all_returns_everything(self, kit):
        stamps = write_history(kit.ssd, 4, 5)
        result = kit.addr_query_all(4)
        assert [v.timestamp_us for v in result.value[4]] == stamps[::-1]

    def test_multi_lpa_query(self, kit):
        for lpa in (1, 2, 3):
            write_history(kit.ssd, lpa, 2)
        result = kit.addr_query_all(1, cnt=3)
        assert set(result.value) == {1, 2, 3}

    def test_bad_range_rejected(self, kit):
        with pytest.raises(QueryError):
            kit.addr_query(0, cnt=0)
        with pytest.raises(QueryError):
            kit.addr_query(kit.ssd.logical_pages, cnt=1)
        with pytest.raises(QueryError):
            kit.addr_query_range(0, 1, t1=10, t2=5)

    def test_threads_reduce_elapsed_time(self, kit):
        for lpa in range(32):
            write_history(kit.ssd, lpa, 3, gap_us=100)
        serial = kit.addr_query_all(0, cnt=32, threads=1)
        parallel = kit.addr_query_all(0, cnt=32, threads=4)
        assert parallel.elapsed_us < serial.elapsed_us
        assert {k: [v.timestamp_us for v in vs] for k, vs in serial.value.items()} == {
            k: [v.timestamp_us for v in vs] for k, vs in parallel.value.items()
        }

    def test_one_command_reads_a_shared_delta_page_once(self):
        """Neighbouring LPAs' deltas are packed into the same flushed
        pages.  One vendor command buffers what it fetches; the buffer
        dies with the command and a bare ``version_chain`` has its own."""
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
        )
        churn_real_content(ssd, ssd.logical_pages // 3, 2000)
        kit = TimeKits(ssd)
        owners = {}  # flushed delta page -> LPAs with a record in it
        for lpa in ssd.index.delta_head_lpas():
            record = ssd.index.delta_head(lpa)
            while record is not None and not record.dropped:
                if record.flash_ppa is not None:
                    owners.setdefault(record.flash_ppa, set()).add(lpa)
                record = record.back
        shared, lpas = max(owners.items(), key=lambda item: (len(item[1]), item[0]))
        assert len(lpas) >= 2
        addr, cnt = min(lpas), max(lpas) - min(lpas) + 1

        reads = []
        read_page = ssd.device.read_page

        def counting_read(ppa, t, **kwargs):
            reads.append(ppa)
            return read_page(ppa, t, **kwargs)

        ssd.device.read_page = counting_read
        alone = {lpa: ssd.version_chain(lpa)[0] for lpa in range(addr, addr + cnt)}
        assert reads.count(shared) == len(lpas)

        now = ssd.clock.now_us
        for command in (1, 2):
            del reads[:]
            result = kit.addr_query_range(addr, cnt, 0, now)
            assert result.value == alone
            assert reads.count(shared) == 1
            delta_reads = [ppa for ppa in reads if ppa in owners]
            assert len(delta_reads) == len(set(delta_reads))
            snapshot = ssd.metrics_snapshot()
            assert snapshot["counters"]["timekits.walk.delta_pages_read"] == (
                command * len(delta_reads)
            )
            assert snapshot["gauges"]["timekits.walk.delta_pages_buffered"] == len(
                delta_reads
            )


class TestMarginalMedia:
    def test_a_retained_version_is_read_through_the_retry_ladder(self):
        """A chain hop is a firmware read like a host read: on media
        where every first sense fails ECC, the walk climbs the retry
        ladder and still returns each version's exact bytes."""
        ssd = make_timessd(
            content_mode=ContentMode.REAL,
            retention_floor_us=3600 * SECOND_US,
            reliability=FlashReliability(
                raw_bit_error_rate=8e-3,
                ecc_correctable_bits=8,
                retry_ber_factor=0.1,
                seed=0xA11,
            ),
        )
        page_size = ssd.device.geometry.page_size
        old, new = b"v0".ljust(page_size, b"\x01"), b"v1".ljust(page_size, b"\x02")
        ssd.write(3, old)
        ssd.clock.advance(1000)
        ssd.write(3, new)
        retries = ssd.obs.metrics.counter("reliability.retry_reads")
        assert retries.value == 0  # nothing has been read yet
        versions = TimeKits(ssd).addr_query_all(3).value[3]
        assert [(v.source, v.data) for v in versions] == [
            ("current", new), ("data-page", old),
        ]
        assert retries.value >= 2  # the head and the retained version


class TestTimeQueries:
    def test_time_query_finds_recent_updates(self, kit):
        write_history(kit.ssd, 1, 2)
        mark = kit.ssd.clock.now_us
        write_history(kit.ssd, 2, 2)
        result = kit.time_query(mark)
        assert 2 in result.value
        assert 1 not in result.value

    def test_time_query_range(self, kit):
        s1 = write_history(kit.ssd, 1, 2)
        s2 = write_history(kit.ssd, 2, 2)
        result = kit.time_query_range(s2[0], s2[-1])
        assert set(result.value) == {2}
        with pytest.raises(QueryError):
            kit.time_query_range(10, 5)

    def test_time_query_all_covers_all_mapped(self, kit):
        for lpa in (3, 5, 9):
            write_history(kit.ssd, lpa, 1)
        result = kit.time_query_all()
        assert set(result.value) == {3, 5, 9}

    def test_time_query_scans_cost_scales_with_device(self, kit):
        for lpa in range(64):
            kit.ssd.write(lpa)
        result = kit.time_query_all()
        assert result.elapsed_us >= 64 / kit.ssd.device.geometry.channels * kit.ssd.device.timing.read_us

    def test_time_queries_list_writes_to_since_trimmed_lpas(self, kit):
        """Delete-then-rewrite elsewhere is the ransomware footprint: the
        deleted LPA's writes stay in the chronology, and so does the
        deletion."""
        ssd = kit.ssd
        old = write_history(ssd, 5, 1)
        t0 = ssd.clock.now_us
        new = write_history(ssd, 5, 1)
        kept = write_history(ssd, 6, 1)
        deleted = [ssd.clock.now_us]
        ssd.trim(5)
        ssd.clock.advance(1000)
        assert ssd.lpas_with_history() == [6, 5]  # mapped first
        assert kit.time_query(t0).value == {5: new + deleted, 6: kept}
        assert kit.time_query_range(0, t0 - 1).value == {5: old}
        everything = kit.time_query_all().value
        assert everything == {5: old + new + deleted, 6: kept}
        assert list(everything) == [5, 6]  # answered in LPA order
        ssd.write(5)
        assert ssd.lpas_with_history() == [5, 6]

    def test_time_queries_reach_a_delta_chain_left_unmapped_by_recovery(self):
        """Recovery leaves an LPA unmapped when its surviving head is
        older than its delta history: a delta head, no mapping and no
        tombstone."""
        ssd = make_timessd(
            geometry=small_geometry(blocks_per_plane=32),
            retention_floor_us=3600 * SECOND_US,
        )
        fill_and_churn(ssd, ssd.logical_pages // 3, 2000)
        demoted, mapped = sorted(ssd.index.delta_head_lpas())[:2]
        ssd.mapping.invalidate(demoted)  # no _on_invalidate: no tombstone
        assert ssd.lpas_with_history() == [*ssd.mapping.mapped_lpas(), demoted]
        stamps = sorted(v.timestamp_us for v in ssd.version_chain(demoted)[0])
        assert stamps
        everything = TimeKits(ssd).time_query_all(threads=4).value
        assert everything[demoted] == stamps
        assert mapped in everything

    def test_time_queries_never_run_the_codec(self, monkeypatch):
        """A time query answers with stamps: it decodes no retained
        payload, so its answer and latency are those of a twin whose
        codec and lock would raise if touched."""

        key = b"correct horse battery staple"

        def twin():
            ssd = make_timessd(
                geometry=small_geometry(blocks_per_plane=32),
                content_mode=ContentMode.REAL,
                retention_floor_us=3600 * SECOND_US,
                retention_key=key,
            )
            history = churn_real_content(ssd, ssd.logical_pages // 3, 2000)
            counters = ssd.metrics_snapshot()["counters"]
            assert counters["timessd.delta.compressions"] > 0
            ssd.unlock_retention(key)
            return TimeKits(ssd), sorted(sum(history.values(), []))

        def answers(kit, stamps):
            t1, t2 = stamps[len(stamps) // 4], stamps[len(stamps) // 2]
            completion = NVMeController(kit.ssd).submit(
                NVMeCommand(Opcode.TIME_QUERY, t=t2, threads=4)
            )
            assert completion.ok
            return [
                kit.time_query(t2, threads=4),
                kit.time_query_range(t1, t2, threads=2),
                kit.time_query_all(),
                ForensicTimeline(kit).events_since(t2),
                (completion.result, completion.latency_us),
            ]

        expected = answers(*twin())
        assert len(expected[2].value) > 100
        kit, stamps = twin()

        def refuse(*_args, **_kwargs):
            raise AssertionError("a time query decoded a retained payload")

        monkeypatch.setattr(RealDeltaCodec, "decompress", refuse)
        monkeypatch.setattr(RetentionLock, "open_payload", refuse)
        assert answers(kit, stamps) == expected
        with pytest.raises(AssertionError):
            kit.addr_query_all(0, cnt=kit.ssd.logical_pages // 3)


class TestRollback:
    def test_rollback_restores_old_state(self):
        ssd = make_timessd(
            retention_floor_us=3600 * SECOND_US,
        )
        from repro.timessd.config import ContentMode, TimeSSDConfig

        # Use real content so we can check actual bytes.
        from tests.conftest import small_geometry

        ssd = type(ssd)(
            TimeSSDConfig(
                geometry=small_geometry(),
                retention_floor_us=3600 * SECOND_US,
                content_mode=ContentMode.REAL,
            )
        )
        kit = TimeKits(ssd)
        ssd.write(7, b"old-state".ljust(512, b"\0"))
        t_old = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.write(7, b"new-state".ljust(512, b"\0"))
        ssd.clock.advance(1000)
        kit.rollback(7, cnt=1, t=t_old)
        assert ssd.read(7)[0].startswith(b"old-state")

    def test_rollback_is_itself_undoable(self, kit):
        stamps = write_history(kit.ssd, 7, 3)
        pre_rollback_ts = kit.ssd.clock.now_us
        kit.rollback(7, t=stamps[0])
        versions, _ = kit.ssd.version_chain(7)
        # All three original versions plus the rollback write remain.
        assert len(versions) == 4

    def test_rollback_to_current_state_is_noop(self, kit):
        stamps = write_history(kit.ssd, 7, 2)
        writes_before = kit.ssd.host_pages_written
        result = kit.rollback(7, t=kit.ssd.clock.now_us)
        assert kit.ssd.host_pages_written == writes_before
        assert result.value[7].timestamp_us == stamps[-1]

    def test_rollback_all(self, kit):
        first = {}
        for lpa in (1, 2):
            first[lpa] = write_history(kit.ssd, lpa, 1)[0]
        t = kit.ssd.clock.now_us
        kit.ssd.clock.advance(500)
        for lpa in (1, 2):
            write_history(kit.ssd, lpa, 1)
        result = kit.rollback_all(t)
        assert set(result.value) == {1, 2}
        for lpa in (1, 2):
            # Each LPA was rolled back to its first (pre-t) version...
            assert result.value[lpa].timestamp_us == first[lpa]
            versions, _ = kit.ssd.version_chain(lpa)
            # ...via a fresh write, so the chain grew to three versions.
            assert versions[0].timestamp_us > t
            assert len(versions) == 3

    def test_rollback_restores_an_lpa_trimmed_after_t(self, real_kit):
        """The as-of version predates the deletion: the device reads
        nothing there, so the rollback must write it."""
        ssd = real_kit.ssd
        ssd.write(3, real_page(b"v1"))
        t = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.trim(3)
        ssd.clock.advance(1000)
        real_kit.rollback(3, 1, t)
        assert ssd.read(3)[0] == real_page(b"v1")

    def test_rollback_leaves_an_lpa_trimmed_at_t_deleted(self, real_kit):
        ssd = real_kit.ssd
        ssd.write(3, real_page(b"v1"))
        ssd.clock.advance(1000)
        ssd.trim(3)
        ssd.clock.advance(1000)
        t = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.write(3, real_page(b"v2"))
        ssd.clock.advance(1000)
        result = real_kit.rollback(3, 1, t)
        assert result.value[3].source == "deleted"
        assert not ssd.mapping.is_mapped(3)
        # The rollback's TRIM is itself history: v2 stays retained.
        sources = [v.source for v in ssd.version_chain(3)[0]]
        assert sources == ["deleted", "data-page", "deleted", "data-page"]
        # Rolling back to a time the LPA was deleted at changes nothing.
        programs = ssd.device.page_programs.value
        real_kit.rollback(3, 1, t)
        assert ssd.device.page_programs.value == programs
        assert ssd.version_chain(3)[0][0].source == "deleted"

    def test_rollback_all_restores_an_lpa_trimmed_after_t(self, real_kit):
        ssd = real_kit.ssd
        ssd.write(3, real_page(b"v1"))
        t = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.trim(3)
        ssd.clock.advance(1000)
        real_kit.rollback_all(t)
        assert ssd.read(3)[0] == real_page(b"v1")

    @pytest.mark.parametrize(
        "opcode", [Opcode.ROLLBACK, Opcode.ROLLBACK_ALL], ids=lambda op: op.name
    )
    def test_rollback_is_refused_when_the_device_is_read_only(self, kit, opcode):
        ssd = kit.ssd
        stamps = write_history(ssd, 7, 2)
        ssd._enter_degraded("injected by test")
        programs = ssd.metrics_snapshot()["counters"]["flash.programs"]
        with pytest.raises(DegradedModeError):
            if opcode is Opcode.ROLLBACK:
                kit.rollback(7, t=stamps[0])
            else:
                kit.rollback_all(stamps[0])
        completion = NVMeController(ssd).submit(
            NVMeCommand(opcode, slba=7, nlb=1, t=stamps[0])
        )
        assert completion.status is StatusCode.DEGRADED_READ_ONLY
        assert ssd.metrics_snapshot()["counters"]["flash.programs"] == programs
        # Read-only, not dead: the state a rollback would restore stays
        # queryable.
        assert kit.addr_query(7, t=stamps[0]).value[7].timestamp_us == stamps[0]

    def test_rollback_pages_are_admitted_host_writes(self, kit):
        ssd = kit.ssd
        for lpa in (1, 2, 3):
            t_old = write_history(ssd, lpa, 1)[0]
        for lpa in (1, 2, 3):
            write_history(ssd, lpa, 1)
        before = ssd.metrics_snapshot()
        kit.rollback(1, cnt=3, t=t_old, threads=2)
        after = ssd.metrics_snapshot()
        assert after["counters"]["ftl.host_writes"] == (
            before["counters"]["ftl.host_writes"] + 3
        )
        assert after["histograms"]["ftl.write_us"]["count"] == (
            before["histograms"]["ftl.write_us"]["count"] + 3
        )


def absent_probe(ssd):
    """Write LPA 1, take ``t``, then write LPA 2 for the first time and
    rewrite LPA 1: as of ``t`` LPA 1 held its first bytes and LPA 2
    nothing.  Returns ``t``."""
    ssd.write(1, real_page(b"1 before t"))
    ssd.clock.advance(1000)
    t = ssd.clock.now_us
    ssd.clock.advance(1000)
    ssd.write(2, real_page(b"2 after t"))
    ssd.write(1, real_page(b"1 after t"))
    ssd.clock.advance(1000)
    return t


def as_of_through(route, kit, t):
    """The ``{1, 2}`` as-of answer by ``route``; a rollback route also
    restores it."""
    if route in ("ADDR_QUERY", "ROLLBACK"):
        completion = NVMeController(kit.ssd).submit(
            NVMeCommand(Opcode[route], slba=1, nlb=2, t=t)
        )
        assert completion.ok
        return completion.result
    if route == "rollback_all":
        return kit.rollback_all(t).value
    return getattr(kit, route)([1, 2], t).value


AS_OF_ROUTES = ["as_of", "ADDR_QUERY", "rollback_lpas", "rollback_all", "ROLLBACK"]


class TestAsOfContract:
    """The state as of ``t`` is exact: an LPA that held nothing at ``t``
    answers ``None`` and a rollback leaves it unmapped, and a ``t``
    before the guaranteed start is refused, not answered."""

    @pytest.mark.parametrize("route", AS_OF_ROUTES)
    def test_an_lpa_first_written_after_t_was_absent(self, real_kit, route):
        ssd = real_kit.ssd
        t = absent_probe(ssd)
        answer = as_of_through(route, real_kit, t)
        assert set(answer) == {1, 2}
        assert answer[1].data == real_page(b"1 before t")
        assert answer[2] is None
        restored = route.lower().startswith("rollback")
        assert ssd.read(1)[0] == real_page(b"1 before t" if restored else b"1 after t")
        assert ssd.read(2)[0] == (None if restored else real_page(b"2 after t"))
        if restored:
            # The rollback's TRIM is history: LPA 2's bytes stay retained.
            assert [v.source for v in ssd.version_chain(2)[0]] == ["deleted", "data-page"]

    @staticmethod
    def churned():
        """A device whose achieved window has moved off 0 under GC."""
        floor_us = 100 * 1000
        ssd = make_timessd(retention_floor_us=floor_us, bloom_capacity=64)
        fill_and_churn(ssd, ssd.logical_pages // 2, 3000, gap_us=100)
        start = ssd.blooms.window_start_us()
        assert 0 < start <= ssd.clock.now_us - floor_us
        assert ssd.retention.window_start_us() == start
        return ssd

    @staticmethod
    def state(ssd):
        counters = ssd.metrics_snapshot()["counters"]
        return (
            ssd.clock.now_us,
            [ssd.mapping.lookup(lpa) for lpa in range(ssd.logical_pages)],
            [counters["flash." + op] for op in ("reads", "programs", "erases")],
        )

    @pytest.mark.parametrize("route", AS_OF_ROUTES)
    def test_a_t_before_the_guaranteed_start_is_refused(self, route):
        ssd = self.churned()
        kit = TimeKits(ssd)
        start = ssd.retention.window_start_us()
        before = self.state(ssd)
        if route in ("ADDR_QUERY", "ROLLBACK"):
            completion = NVMeController(ssd).submit(
                NVMeCommand(Opcode[route], slba=1, nlb=2, t=start - 1)
            )
            assert completion.status is StatusCode.INVALID_FIELD
        else:
            with pytest.raises(QueryError):
                as_of_through(route, kit, start - 1)
        assert self.state(ssd) == before
        assert set(kit.as_of([1, 2], start).value) == {1, 2}

    def test_after_a_power_cut_the_floor_vouches_for_the_window(self, real_kit):
        """The mount restarts the bloom chain, so the achieved window's
        start is forgotten: ``now - floor`` is what the device vouches
        for, answered exactly, and anything earlier is refused."""
        ssd = real_kit.ssd
        floor = ssd.config.retention_floor_us
        ssd.write(1, real_page(b"v1"))
        ssd.clock.advance(2 * floor)
        t_v1 = ssd.clock.now_us
        ssd.clock.advance(1000)
        ssd.write(1, real_page(b"v2"))
        ssd.write(2, real_page(b"new"))
        ssd.clock.advance(1000)
        assert real_kit.as_of([1], 0).value[1].data == real_page(b"v1")
        simulate_power_loss(ssd)
        rebuild_from_flash(ssd)
        start = ssd.clock.now_us - floor
        assert ssd.retention.window_start_us() == start <= t_v1
        answer = real_kit.as_of([1, 2], start).value
        assert answer[1].data == real_page(b"v1")
        assert answer[2] is None
        for t in (0, start - 1):
            with pytest.raises(QueryError):
                real_kit.as_of([1, 2], t)


class TestQueryResult:
    def test_fields(self):
        r = QueryResult(value={"a": 1}, elapsed_us=10)
        assert r.value == {"a": 1}
        assert r.elapsed_us == 10


class TestPagesTouched:
    def test_queries_report_flash_reads(self):
        from tests.conftest import make_timessd
        from repro.common.units import SECOND_US

        ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
        kit = TimeKits(ssd)
        for _ in range(4):
            ssd.write(3)
            ssd.clock.advance(1000)
        result = kit.addr_query_all(3)
        assert result.pages_touched == 4  # one read per chain hop
