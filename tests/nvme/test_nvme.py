import dataclasses

import pytest

from repro.common.units import SECOND_US
from repro.nvme import (
    AdminOpcode,
    HostNVMeDriver,
    NVMeCommand,
    NVMeController,
    Opcode,
    StatusCode,
)
from repro.nvme.driver import NVMeError
from repro.timessd.config import ContentMode

from tests.conftest import make_regular_ssd, make_timessd


@pytest.fixture
def driver():
    ssd = make_timessd(
        content_mode=ContentMode.REAL, retention_floor_us=3600 * SECOND_US
    )
    return HostNVMeDriver(ssd)


def page(ssd_or_driver, text):
    size = (
        ssd_or_driver.controller.ssd.device.geometry.page_size
        if isinstance(ssd_or_driver, HostNVMeDriver)
        else ssd_or_driver.device.geometry.page_size
    )
    return text.encode().ljust(size, b"\0")


class TestStandardIO:
    def test_write_read_roundtrip(self, driver):
        payload = [page(driver, "hello-nvme")]
        driver.write(7, payload)
        assert driver.read(7) == payload

    def test_multi_block_io(self, driver):
        pages = [page(driver, "p%d" % i) for i in range(4)]
        driver.write(10, pages)
        assert driver.read(10, 4) == pages

    def test_trim(self, driver):
        driver.write(3, [page(driver, "x")])
        driver.trim(3)
        assert driver.read(3) == [None]

    def test_flush_succeeds(self, driver):
        driver.flush()

    def test_out_of_range_is_status_not_exception_at_controller(self, driver):
        completion = driver.controller.submit(
            NVMeCommand(Opcode.READ, slba=10**9, nlb=1)
        )
        assert completion.status is StatusCode.LBA_OUT_OF_RANGE

    def test_driver_raises_on_error_status(self, driver):
        with pytest.raises(NVMeError) as excinfo:
            driver.read(10**9)
        assert excinfo.value.status is StatusCode.LBA_OUT_OF_RANGE

    def test_bad_nlb_rejected(self, driver):
        completion = driver.controller.submit(NVMeCommand(Opcode.READ, slba=0, nlb=0))
        assert completion.status is StatusCode.INVALID_FIELD

    def test_unknown_opcode_rejected(self, driver):
        completion = driver.controller.submit(NVMeCommand(opcode=0x55))
        assert completion.status is StatusCode.INVALID_OPCODE

    @pytest.mark.parametrize("route", ["submit", "submit_async"])
    def test_a_made_up_opcode_mints_no_metric_name(self, driver, route):
        # The registry is the device's: a host choosing opcode values must
        # not choose metric names.  Every opcode that is not a member of
        # its own queue's enum is one INVALID, and changes nothing: a value
        # equal to a member (True and 1.0 are WRITE, 2.0 is READ, 192.0
        # ADDR_QUERY) is not that member, nor is a member of the other
        # queue's enum.
        ssd = driver.controller.ssd
        kept = page(driver, "keep")
        ssd.write(0, kept)
        written = ssd.host_pages_written
        metrics = driver.controller.obs.metrics
        junk = [page(driver, "junk")]
        made_up = [
            NVMeCommand(op, data=junk)
            for op in (0x55, 0x56, 0xFF, "x", None, [1], True, 1.0, 2.0, 192.0)
            + (AdminOpcode.GET_LOG_PAGE, AdminOpcode.IDENTIFY)
        ] + [
            NVMeCommand(op, data=junk, admin=True)
            for op in (Opcode.READ, Opcode.WRITE, Opcode.ADDR_QUERY, True, 2.0)
        ]
        if route == "submit":
            completions = [driver.controller.submit(c) for c in made_up]
        else:
            completions, _ = driver.submit_async(made_up, queue_pairs=2)
        assert {c.status for c in completions} == {StatusCode.INVALID_OPCODE}
        assert ssd.host_pages_written == written
        names = {n for n in metrics.names() if n.startswith("nvme.op.")}
        assert names == {"nvme.op.INVALID"}
        assert metrics.get("nvme.op.INVALID").value == len(made_up)
        # An enum member still names its own counter, and READ and
        # GET_LOG_PAGE (both opcode 2) stay apart.
        assert driver.read(0) == [kept]
        driver.smart_log()
        assert metrics.get("nvme.op.READ").value == 1
        assert metrics.get("nvme.op.GET_LOG_PAGE").value == 1
        assert metrics.get("nvme.op.INVALID").value == len(made_up)


class TestMalformedFields:
    @pytest.mark.parametrize("route", ["submit", "submit_async"])
    def test_malformed_fields_complete_invalid_field(self, driver, route):
        # Each of these used to raise out of the controller (TypeError,
        # IndexError) or store a page no GC could later compress.
        original = [page(driver, "keep-%d" % i) for i in range(3)]
        driver.write(0, original)
        ssd = driver.controller.ssd
        written = ssd.host_pages_written
        malformed = [
            NVMeCommand(Opcode.READ, slba=0, nlb=2.5),
            NVMeCommand(Opcode.READ, slba=None, nlb=1),
            NVMeCommand(Opcode.READ, slba=1.5, nlb=1),
            NVMeCommand(Opcode.DSM, slba=0, nlb=True),
            NVMeCommand(Opcode.WRITE, slba=0, nlb=3, data=[page(driver, "x")]),
            NVMeCommand(
                Opcode.WRITE, slba=0, nlb=2, data=[page(driver, "x"), b"short"]
            ),
            NVMeCommand(Opcode.WRITE, slba=0, nlb=1, data=None),
        ]
        if route == "submit":  # vendor opcodes are host-serial
            malformed += [
                NVMeCommand(Opcode.ADDR_QUERY, slba=0, nlb=1, t=1.5),
                NVMeCommand(Opcode.TIME_QUERY, t=None),
                NVMeCommand(Opcode.ROLLBACK, slba=0, nlb=1, t="0"),
                # One integer rule for every field: a bool is not a count.
                NVMeCommand(Opcode.ADDR_QUERY, slba=0, nlb=1, threads=True),
                NVMeCommand(Opcode.ROLLBACK, slba=0, nlb=1, threads=True),
            ]
        for command in malformed:
            if route == "submit":
                completion = driver.controller.submit(command)
            else:
                sibling = NVMeCommand(Opcode.READ, slba=0, nlb=3)
                (completion, read), _ = driver.submit_async([command, sibling])
                assert read.ok and read.result == original
            assert completion.status is StatusCode.INVALID_FIELD, command
            assert driver.read(0, 3) == original
        assert ssd.host_pages_written == written


class TestAdmin:
    def test_identify_reports_time_travel(self, driver):
        info = driver.identify()
        assert info.model == "TimeSSD"
        assert info.time_travel
        assert info.logical_pages == driver.controller.ssd.logical_pages

    def test_identify_regular_device(self):
        regular = HostNVMeDriver(make_regular_ssd())
        info = regular.identify()
        assert info.model == "RegularSSD"
        assert not info.time_travel

    def test_smart_log_counters(self, driver):
        driver.write(0, [page(driver, "a")])
        log = driver.smart_log()
        assert log["host_pages_written"] == 1
        assert "write_amplification" in log


class TestVendorCommands:
    def test_addr_query_all_via_nvme(self, driver):
        for text in ("v1", "v2", "v3"):
            driver.write(5, [page(driver, text)])
            driver.controller.ssd.clock.advance(1000)
        chains = driver.addr_query_all(5)
        assert len(chains[5]) == 3

    def test_addr_query_as_of(self, driver):
        driver.write(5, [page(driver, "old")])
        t_old = driver.controller.ssd.clock.now_us
        driver.controller.ssd.clock.advance(1000)
        driver.write(5, [page(driver, "new")])
        picked = driver.addr_query(5, t=t_old)
        assert picked[5].data == page(driver, "old")

    def test_rollback_via_nvme(self, driver):
        driver.write(5, [page(driver, "old")])
        t_old = driver.controller.ssd.clock.now_us
        driver.controller.ssd.clock.advance(1000)
        driver.write(5, [page(driver, "new")])
        driver.rollback(5, t=t_old)
        assert driver.read(5) == [page(driver, "old")]

    def test_time_query_via_nvme(self, driver):
        driver.write(1, [page(driver, "a")])
        mark = driver.controller.ssd.clock.now_us
        driver.controller.ssd.clock.advance(1000)
        driver.write(2, [page(driver, "b")])
        updated = driver.time_query(mark)
        assert 2 in updated and 1 not in updated

    @pytest.mark.parametrize(
        "command",
        [
            NVMeCommand(Opcode.TIME_QUERY_RANGE, t=10, t2=5),
            NVMeCommand(Opcode.ADDR_QUERY_RANGE, slba=0, nlb=1, t=10, t2=5),
        ],
        ids=lambda command: command.opcode.name,
    )
    def test_time_query_range_validates_order(self, driver, command):
        assert driver.controller.submit(command).status is StatusCode.INVALID_FIELD

    def test_retention_info(self, driver):
        driver.write(0, [page(driver, "a")])
        driver.write(0, [page(driver, "b")])
        info = driver.retention_info()
        assert info["retained_pages"] == 1
        assert info["retention_floor_us"] == 3600 * SECOND_US

    @pytest.mark.parametrize(
        "command",
        [
            NVMeCommand(Opcode.ADDR_QUERY, slba=0, nlb=1, threads=0),
            NVMeCommand(Opcode.TIME_QUERY_ALL, threads=-3),
            NVMeCommand(Opcode.ROLLBACK, slba=0, nlb=1, threads=0),
        ],
        ids=lambda command: command.opcode.name,
    )
    def test_hostile_thread_count_is_a_status_not_a_traceback(self, driver, command):
        assert driver.controller.submit(command).status is StatusCode.INVALID_FIELD

    @pytest.mark.parametrize(
        "command, method, args",
        [
            (NVMeCommand(Opcode.ADDR_QUERY_ALL, nlb=3), "addr_query_all", (0, 3)),
            (NVMeCommand(Opcode.ROLLBACK, nlb=3, t=1), "rollback", (0, 3, 1)),
            (NVMeCommand(Opcode.TIME_QUERY), "time_query", (0,)),
        ],
        ids=["ADDR_QUERY_ALL", "ROLLBACK", "TIME_QUERY"],
    )
    def test_huge_thread_count_is_served_as_one_thread_per_lba(
        self, command, method, args
    ):
        # Threads beyond the work idle at the start, so 10**12 of them
        # answer and cost exactly what one per LBA does.
        huge, fitted = (make_timessd(content_mode=ContentMode.REAL) for _ in range(2))
        for ssd in (huge, fitted):
            for version in ("v1", "v2"):
                for lba in range(3):
                    ssd.write(lba, page(ssd, "%s-%d" % (version, lba)))
                ssd.clock.advance(1000)
        completions = [
            NVMeController(ssd).submit(dataclasses.replace(command, threads=n))
            for ssd, n in ((huge, 10**12), (fitted, 3))
        ]
        assert completions[0].ok
        assert completions[0] == completions[1]
        # A thread count that is not an int >= 1 is a status on the
        # driver route too.
        for threads in (2.5, "4", None):
            with pytest.raises(NVMeError) as excinfo:
                getattr(HostNVMeDriver(huge), method)(*args, threads=threads)
            assert excinfo.value.status is StatusCode.INVALID_FIELD

    def test_locked_history_is_a_status_not_a_traceback(self):
        locked = HostNVMeDriver(
            make_timessd(content_mode=ContentMode.REAL, retention_key=b"k" * 16)
        )
        locked.write(0, [page(locked, "a")])
        locked.write(0, [page(locked, "b")])
        completion = locked.controller.submit(
            NVMeCommand(Opcode.ADDR_QUERY_ALL, slba=0, nlb=1)
        )
        assert completion.status is StatusCode.INVALID_FIELD

    def test_vendor_opcodes_rejected_on_regular_ssd(self):
        regular = HostNVMeDriver(make_regular_ssd())
        completion = regular.controller.submit(NVMeCommand(Opcode.ADDR_QUERY_ALL))
        assert completion.status is StatusCode.INVALID_OPCODE

    def test_completion_carries_latency(self, driver):
        driver.write(0, [page(driver, "a")])
        completion = driver.controller.submit(NVMeCommand(Opcode.READ, slba=0, nlb=1))
        assert completion.ok
        assert completion.latency_us > 0


class TestRetentionAlarm:
    def test_floor_violation_surfaces_as_vendor_status(self):
        ssd = make_timessd(retention_floor_us=10**15)
        driver = HostNVMeDriver(ssd)
        status = None
        for i in range(50_000):
            completion = driver.controller.submit(
                NVMeCommand(Opcode.WRITE, slba=i % 64, nlb=1, data=[None])
            )
            if not completion.ok:
                status = completion.status
                break
            ssd.clock.advance(100)
        assert status is StatusCode.RETENTION_PROTECTED

    @pytest.mark.parametrize("route", ["submit", "submit_async"])
    def test_a_refused_rollback_reads_nothing_and_moves_no_clock(self, route):
        # The floor alarm leaves the device read-only.  A rollback is a
        # write-back, so it is refused before its walk: on the host-serial
        # route as DEGRADED_READ_ONLY, on the queued route (which takes
        # no vendor command) as INVALID_OPCODE.
        ssd = make_timessd(retention_floor_us=10**15)
        controller = NVMeController(ssd)
        t = ssd.clock.now_us
        for i in range(50_000):
            command = NVMeCommand(Opcode.WRITE, slba=i % 64, nlb=1, data=[None])
            status = controller.submit(command).status
            if status is not StatusCode.SUCCESS:
                break
            ssd.clock.advance(100)
        assert status is StatusCode.RETENTION_PROTECTED

        def state():
            counters = ssd.metrics_snapshot()["counters"]
            return (
                ssd.clock.now_us,
                [ssd.mapping.lookup(lpa) for lpa in range(ssd.logical_pages)],
                {k: v for k, v in counters.items() if k.startswith("timekits.")},
                counters["flash.reads"],
            )

        before = state()
        rollback = NVMeCommand(Opcode.ROLLBACK, slba=0, nlb=2, t=t)
        if route == "submit":
            completion = controller.submit(rollback)
            assert completion.status is StatusCode.DEGRADED_READ_ONLY
        else:
            (completion,), _ = HostNVMeDriver(ssd).submit_async([rollback])
            assert completion.status is StatusCode.INVALID_OPCODE
        assert state() == before


class TestFullDevice:
    @pytest.mark.parametrize("route", ["submit", "submit_async"])
    def test_full_device_completes_capacity_exceeded_then_read_only(self, route):
        # Every LBA valid: the first overwrites use up the spare blocks,
        # then GC finds no victim.  That is a plain DeviceFullError, not
        # one of its two refused-write subclasses.
        ssd = make_regular_ssd()
        driver = HostNVMeDriver(ssd)
        for lpa in range(ssd.logical_pages):
            ssd.write(lpa)

        def overwrite(lpa):
            command = NVMeCommand(Opcode.WRITE, slba=lpa, nlb=1, data=[None])
            if route == "submit":
                return driver.controller.submit(command)
            (completion,), _ = driver.submit_async([command])
            return completion

        failed = next(
            completion
            for completion in map(overwrite, range(ssd.logical_pages))
            if not completion.ok
        )
        assert failed.status is StatusCode.CAPACITY_EXCEEDED
        assert overwrite(0).status is StatusCode.DEGRADED_READ_ONLY


class TestBatchedSubmission:
    def _loaded_driver(self):
        ssd = make_timessd()
        driver = HostNVMeDriver(ssd)
        for lpa in range(256):
            ssd.write(lpa)
        return driver

    def test_reads_scale_with_queue_depth(self):
        import random

        driver = self._loaded_driver()
        rng = random.Random(2)
        lpas = [rng.randrange(256) for _ in range(200)]
        elapsed = {}
        for qd in (1, 8):
            commands = [NVMeCommand(Opcode.READ, slba=lpa, nlb=1) for lpa in lpas]
            completions, took = driver.submit_async(commands, queue_depth=qd)
            assert all(c.ok for c in completions)
            elapsed[qd] = took
        assert elapsed[8] < elapsed[1] / 2  # deep queues exploit channels

    def test_batched_writes_apply_in_order(self):
        driver = self._loaded_driver()
        commands = [
            NVMeCommand(Opcode.WRITE, slba=5, nlb=1, data=[b"first"]),
            NVMeCommand(Opcode.WRITE, slba=5, nlb=1, data=[b"second"]),
        ]
        completions, _ = driver.submit_async(commands, queue_depth=4)
        assert all(c.ok for c in completions)
        assert driver.read(5) == [b"second"]

    def test_batch_reports_bad_lba(self):
        driver = self._loaded_driver()
        commands = [NVMeCommand(Opcode.READ, slba=10**9, nlb=1)]
        completions, _ = driver.submit_async(commands)
        assert completions[0].status is StatusCode.LBA_OUT_OF_RANGE

    def test_batch_rejects_vendor_opcodes(self):
        driver = self._loaded_driver()
        completions, _ = driver.submit_async(
            [NVMeCommand(Opcode.ADDR_QUERY_ALL, slba=0, nlb=1)]
        )
        assert completions[0].status is StatusCode.INVALID_OPCODE

    def test_batch_trim(self):
        driver = self._loaded_driver()
        completions, _ = driver.submit_async(
            [NVMeCommand(Opcode.DSM, slba=0, nlb=4)]
        )
        assert completions[0].ok
        assert driver.read(0) == [None]
