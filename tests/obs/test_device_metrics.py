"""Metrics wired through the device stack agree with first-party accounting."""

import random

import pytest

from repro.common.units import SECOND_US
from repro.ftl.ssd import SSDConfig
from repro.nvme import HostNVMeDriver, NVMeCommand, Opcode, StatusCode
from repro.security.flashguard import FlashGuardSSD

from tests.conftest import (
    AGING,
    age,
    fill_and_churn,
    make_regular_ssd,
    make_timessd,
    small_geometry,
)


def counter(ssd, name):
    metric = ssd.obs.metrics.get(name)
    return metric.value if metric is not None else 0


#: Fault-free, every flash program is one of these (the last only on a
#: TimeSSD; the others count zero on a device without the feature).
PROGRAM_SOURCES = (
    "ftl.host_writes",
    "gc.pages_migrated",
    "recovery.checkpoint.pages",
    "scrub.refreshed_valid",
    "timessd.delta.flushed_pages",
)


def assert_program_identity(ssd, label):
    assert counter(ssd, "flash.programs") == sum(
        counter(ssd, name) for name in PROGRAM_SOURCES
    ), label


class TestFlashCounters:
    @pytest.mark.parametrize("factory", [make_regular_ssd, make_timessd])
    def test_match_legacy_op_counters(self, factory):
        # The device counts into the registry itself, and the counts
        # close the books on a checkpointing device and on an aging one
        # under patrol scrub: each source below is one kind of program.
        checkpointing = fill_and_churn(
            factory(checkpoint_interval_blocks=2), working_set=400, churn_writes=1200
        )
        scrubbing = age(factory(reliability=AGING, patrol_scrub=True))
        for ssd in (checkpointing, scrubbing):
            device, metrics = ssd.device, ssd.obs.metrics
            assert device.page_reads is metrics.get("flash.reads")
            assert device.page_programs is metrics.get("flash.programs")
            assert device.block_erases is metrics.get("flash.erases")
            assert_program_identity(ssd, factory.__name__)
        assert counter(checkpointing, "recovery.checkpoint.pages") > 0
        assert counter(checkpointing, "gc.pages_migrated") > 0
        assert counter(scrubbing, "scrub.refreshed_valid") > 0

    @pytest.mark.parametrize("factory", [make_regular_ssd, make_timessd])
    def test_histogram_counts_match_op_counts(self, factory):
        ssd = fill_and_churn(factory(), working_set=300, churn_writes=800)
        metrics = ssd.obs.metrics
        device = ssd.device
        assert metrics.get("flash.program_us").count == device.page_programs.value
        assert metrics.get("flash.erase_us").count == device.block_erases.value
        if device.page_reads.value:
            assert metrics.get("flash.read_us").count == device.page_reads.value


class TestHostCounters:
    @pytest.mark.parametrize("factory", [make_regular_ssd, make_timessd])
    def test_host_write_read_counters(self, factory):
        ssd = factory()
        for lpa in range(50):
            ssd.write(lpa)
            ssd.clock.advance(1000)
        for lpa in range(20):
            ssd.read(lpa)
        assert counter(ssd, "ftl.host_writes") == 50 == ssd.host_pages_written
        assert counter(ssd, "ftl.host_reads") == 20 == ssd.host_pages_read
        assert ssd.write_latency.count == 50
        assert ssd.read_latency.count == 20


def churn(ssd, route, working_set=600, churn_writes=4000):
    """``fill_and_churn`` down one host route: the device-clock API,
    ``submit_async`` at QD 4, or the device-clock API followed by a
    ROLLBACK of a slice of the working set to one second ago."""
    if route == "async":
        rng = random.Random(7)
        lpas = list(range(working_set))
        lpas += [rng.randrange(working_set) for _ in range(churn_writes)]
        completions, _elapsed = HostNVMeDriver(ssd).submit_async(
            [NVMeCommand(Opcode.WRITE, slba=lpa, nlb=1) for lpa in lpas],
            queue_depth=4,
        )
        assert all(c.ok for c in completions)
        return ssd
    fill_and_churn(ssd, working_set, churn_writes)
    if route == "rollback":
        restored = HostNVMeDriver(ssd).rollback(
            0, count=128, t=ssd.clock.now_us - SECOND_US, threads=4
        )
        assert len(restored) > 32
    return ssd


class TestGCAccounting:
    def test_regular_program_identity(self):
        # Fault-free, every flash program is either a host write or a
        # GC migration — the gc.pages_migrated counter must close the
        # books against the device's own program count, whatever route
        # the host pages took.
        for route in ("ssd", "async"):
            ssd = churn(make_regular_ssd(), route)
            assert ssd.gc_runs > 0
            assert counter(ssd, "gc.pages_migrated") > 0
            assert_program_identity(ssd, route)

    def test_timessd_program_identity(self):
        # TimeSSD adds one more program source: packed delta segments.
        # (Queued writes arrive back to back, so that run gets a floor
        # it outlasts; the others keep the two-second default.)
        for route in ("ssd", "async", "rollback"):
            floor_us = SECOND_US // 50 if route == "async" else 2 * SECOND_US
            ssd = churn(
                make_timessd(
                    retention_floor_us=floor_us,
                    bloom_segment_max_age_us=floor_us // 4,
                ),
                route,
            )
            assert counter(ssd, "timessd.delta.flushed_pages") > 0
            assert_program_identity(ssd, route)

    def test_gc_run_counters_match_properties(self):
        # The properties read the counters, so the witness is a third
        # party: with background GC off, every ``_collect_garbage`` call
        # is one foreground round — on every device kind.
        def make_flashguard(**overrides):
            return FlashGuardSSD(SSDConfig(geometry=small_geometry(), **overrides))

        for make in (make_regular_ssd, make_timessd, make_flashguard):
            ssd = make(background_gc=False)
            rounds = []

            def counted(now_us, collect=ssd._collect_garbage):
                rounds.append(now_us)
                return collect(now_us)

            ssd._collect_garbage = counted
            fill_and_churn(ssd, working_set=600, churn_writes=4000)
            counters = ssd.metrics_snapshot()["counters"]
            assert counters["gc.runs"] == len(rounds) > 0, make.__name__
            assert counters["gc.background_runs"] == 0
            assert (ssd.gc_runs, ssd.background_gc_runs) == (len(rounds), 0)


class TestTimeSSDCounters:
    def test_delta_compressions_match_legacy(self):
        # The codec's calls are the witness; Equation 1 reads its GC
        # share of them off the same counter.
        ssd = make_timessd()
        codec, estimator = ssd.deltas.codec, ssd.estimator
        calls, eq1_deltas = [], []

        def compress(old_data, ref_data, real=codec.compress):
            calls.append(1)
            return real(old_data, ref_data)

        def note_gc_ops(deltas=0, real=estimator.note_gc_ops, **ops):
            eq1_deltas.append(deltas)
            return real(deltas=deltas, **ops)

        codec.compress = compress
        estimator.note_gc_ops = note_gc_ops
        fill_and_churn(ssd, working_set=600, churn_writes=4000)
        assert counter(ssd, "timessd.delta.compressions") == len(calls) > 0
        assert 0 < sum(eq1_deltas) <= len(calls)

    def test_chain_length_histogram_records_queries(self):
        ssd = make_timessd()
        for _ in range(3):
            ssd.write(5)
            ssd.clock.advance(1000)
        ssd.version_chain(5)
        hist = ssd.obs.metrics.get("timessd.chain.length")
        assert hist.count == 1
        assert hist.max_us == 3  # chain length, not a latency
        # An AddrQuery early stop on the data-page chain is a walk too.
        versions, _ = ssd.version_chain(5, until_ts=ssd.clock.now_us)
        assert len(versions) == 1
        assert (hist.count, hist.total_us) == (2, 4)


class TestNVMeMetrics:
    def test_per_opcode_counters_and_latency(self):
        driver = HostNVMeDriver(make_regular_ssd())
        size = driver.controller.ssd.device.geometry.page_size
        driver.write(0, [b"x".ljust(size, b"\0")])
        driver.read(0)
        metrics = driver.controller.obs.metrics
        assert metrics.get("nvme.op.WRITE").value == 1
        assert metrics.get("nvme.op.READ").value == 1
        assert metrics.get("nvme.status.SUCCESS").value == 2
        assert metrics.get("nvme.op.WRITE_us").count == 1
        assert metrics.get("nvme.op.READ_us").count == 1

    def test_error_status_counted_without_latency_sample(self):
        driver = HostNVMeDriver(make_regular_ssd())
        completion = driver.controller.submit(
            NVMeCommand(Opcode.READ, slba=10**9, nlb=1)
        )
        assert completion.status is StatusCode.LBA_OUT_OF_RANGE
        metrics = driver.controller.obs.metrics
        assert metrics.get("nvme.status.LBA_OUT_OF_RANGE").value == 1
        hist = metrics.get("nvme.op.READ_us")
        assert hist is None or hist.count == 0

    def test_controller_shares_ssd_scope(self):
        ssd = make_regular_ssd()
        driver = HostNVMeDriver(ssd)
        assert driver.controller.obs is ssd.obs
