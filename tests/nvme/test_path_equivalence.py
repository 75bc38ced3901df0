"""Every host route admits its pages through the same ``serve_*_at``.

One op list is driven down the four routes a host op can take —
``ssd.write/read/trim`` (the device-clock API, one page per call),
``ssd.write_range/read_range`` (the same API, one request per call),
``controller.submit`` (synchronous NVMe) and
``submit_async(queue_depth=1)`` (the event loop over ``execute_io``) —
and the routes must agree on what the host sees (status, data, latency)
and on everything the firmware holds afterwards: L2P, ``lost_lpas``,
``degraded_reason``, every non-``nvme.*`` metric, the checkpoints
written and the Equation-1 periods evaluated.
"""

import random

import pytest

from repro.common.errors import (
    DegradedModeError,
    InvalidPageError,
    ProgramFailureError,
    UncorrectableReadError,
)
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.driver import HostNVMeDriver
from repro.timessd import ContentMode

from tests.conftest import make_regular_ssd, make_timessd

ROUTES = ("ssd", "range", "submit", "async")
LBAS = 24

_STATUS_OF = {
    DegradedModeError: StatusCode.DEGRADED_READ_ONLY,
    UncorrectableReadError: StatusCode.MEDIA_UNRECOVERED_READ,
    ProgramFailureError: StatusCode.MEDIA_WRITE_FAULT,
}


def _command(op, lba, arg):
    if op == "F":
        return NVMeCommand(Opcode.FLUSH)
    if op == "W":
        return NVMeCommand(Opcode.WRITE, slba=lba, nlb=len(arg), data=arg)
    return NVMeCommand(Opcode.READ if op == "R" else Opcode.DSM, slba=lba, nlb=arg)


def _direct(ssd, op, lba, arg):
    start = ssd.clock.now_us
    try:
        if op == "W":
            for i, data in enumerate(arg):
                ssd.write(lba + i, data)
            result = len(arg)
        elif op == "R":
            result = [ssd.read(lba + i)[0] for i in range(arg)]
        elif op == "F":
            result = 0  # the device-clock API has no flush: acked is durable
        else:
            for i in range(arg):
                ssd.trim(lba + i)
            result = arg
    except tuple(_STATUS_OF) as exc:
        return _STATUS_OF[type(exc)], None, 0
    return StatusCode.SUCCESS, result, ssd.clock.now_us - start


def _ranged(ssd, op, lba, arg):
    try:
        if op == "W":
            return StatusCode.SUCCESS, len(arg), ssd.write_range(lba, len(arg), arg)
        if op == "R":
            data, latency = ssd.read_range(lba, arg)
            return StatusCode.SUCCESS, data, latency
    except tuple(_STATUS_OF) as exc:
        return _STATUS_OF[type(exc)], None, 0
    return _direct(ssd, op, lba, arg)  # the range API has no TRIM or flush


def drive(route, ssd, ops):
    """Run ``(op, lba, arg)`` triples down one route; returns one
    ``(status, result, latency_us)`` per op."""
    if route == "ssd":
        return [_direct(ssd, *op) for op in ops]
    if route == "range":
        return [_ranged(ssd, *op) for op in ops]
    driver = HostNVMeDriver(ssd)
    commands = [_command(*op) for op in ops]
    if route == "submit":
        completions = [driver.controller.submit(c) for c in commands]
    else:
        completions, _elapsed = driver.submit_async(commands, queue_depth=1)
    return [(c.status, c.result, c.latency_us) for c in completions]


def firmware_state(ssd):
    metrics = {
        kind: {k: v for k, v in values.items() if not k.startswith("nvme.")}
        for kind, values in ssd.metrics_snapshot().items()
    }
    estimator = getattr(ssd, "estimator", None)
    return {
        "l2p": [ssd.mapping.lookup(lpa) for lpa in range(LBAS)],
        "lost_lpas": dict(ssd.lost_lpas),
        "degraded_reason": ssd.degraded_reason,
        "metrics": metrics,
        "periods_evaluated": estimator and estimator.periods_evaluated,
        "checkpoints": metrics["counters"].get("recovery.checkpoint.written"),
    }


def seeded_ops(seed, count=120):
    """Writes, overwrites, reads (mapped and unmapped), TRIMs and
    FLUSHes, one to three pages per command, back to back (no idle
    gaps)."""
    rng = random.Random(seed)
    ops = []
    for n in range(count):
        npages = rng.randint(1, 3)
        lba = rng.randrange(LBAS - npages + 1)
        roll = rng.random()
        if roll < 0.5:
            ops.append(("W", lba, [b"v%d.%d" % (n, i) for i in range(npages)]))
        elif roll < 0.8:
            ops.append(("R", lba, npages))
        elif roll < 0.95:
            ops.append(("T", lba, npages))
        else:
            ops.append(("F", 0, 0))
    return ops


def make_checkpointing_timessd():
    """Checkpoints every two blocks of programs, Equation 1 every 16
    user writes: both fire many times inside one seeded op list."""
    return make_timessd(checkpoint_interval_blocks=2, gc_overhead_period_writes=16)


@pytest.mark.parametrize(
    "maker", [make_regular_ssd, make_timessd, make_checkpointing_timessd]
)
def test_seeded_ops_agree_on_every_route(maker):
    outcomes = {}
    for route in ROUTES:
        ssd = maker()
        results = drive(route, ssd, seeded_ops(seed=11))
        outcomes[route] = (results, firmware_state(ssd))
    reads = [r for _s, r, _l in outcomes["ssd"][0] if isinstance(r, list)]
    assert any(None in pages for pages in reads)  # unmapped reads happened
    if maker is make_checkpointing_timessd:
        state = outcomes["ssd"][1]
        assert state["checkpoints"] >= 3 and state["periods_evaluated"] >= 3
    for route in ROUTES[1:]:
        assert outcomes[route] == outcomes["ssd"], route


def _queued_churn(ssd, writes=400, queue_depth=4):
    """Single-page overwrites over a small working set at QD 4."""
    rng = random.Random(5)
    commands = [
        NVMeCommand(Opcode.WRITE, slba=rng.randrange(LBAS), nlb=1, data=[b"q%d" % n])
        for n in range(writes)
    ]
    commands += [NVMeCommand(Opcode.READ, slba=lba, nlb=1) for lba in range(LBAS)]
    completions, _elapsed = HostNVMeDriver(ssd).submit_async(
        commands, queue_depth=queue_depth
    )
    assert all(c.ok for c in completions)
    return writes, LBAS


def test_queued_writes_take_checkpoints():
    ssd = make_checkpointing_timessd()
    _queued_churn(ssd)
    assert ssd.metrics_snapshot()["counters"]["recovery.checkpoint.written"] >= 10


def test_queued_writes_close_equation1_periods():
    ssd = make_checkpointing_timessd()
    writes, _reads = _queued_churn(ssd)
    assert ssd.estimator.periods_evaluated == writes // 16


def test_queued_pages_count_in_ftl_host_metrics():
    ssd = make_regular_ssd()
    writes, reads = _queued_churn(ssd)
    snapshot = ssd.metrics_snapshot()
    assert snapshot["counters"]["ftl.host_writes"] == writes
    assert snapshot["counters"]["ftl.host_reads"] == reads
    assert snapshot["histograms"]["ftl.write_us"]["count"] == writes
    assert snapshot["histograms"]["ftl.read_us"]["count"] == reads
    assert (ssd.host_pages_written, ssd.host_pages_read) == (writes, reads)


@pytest.mark.parametrize("route", ROUTES)
def test_flush_succeeds_on_every_route(route):
    ssd = make_regular_ssd()
    results = drive(route, ssd, [("W", 1, [b"x"]), ("F", 0, 0)])
    assert results[1] == (StatusCode.SUCCESS, 0, 0)


def _ssd_with_lost_lba(lba):
    ssd = make_regular_ssd()
    ssd.write(lba, b"doomed")
    ssd.note_lost_valid_page(ssd.mapping.lookup(lba))
    assert lba in ssd.lost_lpas
    return ssd


@pytest.mark.parametrize("route", ROUTES)
def test_rewrite_and_trim_clear_a_lost_lba(route):
    ssd = _ssd_with_lost_lba(5)
    ops = [("R", 5, 1), ("W", 5, [b"again"])]
    statuses = [status for status, _r, _l in drive(route, ssd, ops)]
    assert statuses == [StatusCode.MEDIA_UNRECOVERED_READ, StatusCode.SUCCESS]
    # Checked before the TRIM below, whose own clearing would mask a
    # rewrite that forgot to.
    assert 5 not in ssd.lost_lpas
    results = drive(route, ssd, [("R", 5, 1), ("T", 5, 1), ("R", 5, 1)])
    assert [(status, r) for status, r, _l in results] == [
        (StatusCode.SUCCESS, [b"again"]),
        (StatusCode.SUCCESS, 1),
        (StatusCode.SUCCESS, [None]),
    ]
    assert ssd.lost_lpas == {}


@pytest.mark.parametrize("route", ROUTES)
def test_trim_alone_clears_a_lost_lba(route):
    ssd = _ssd_with_lost_lba(5)
    results = drive(route, ssd, [("T", 5, 1), ("R", 5, 1)])
    assert [(status, r) for status, r, _l in results] == [
        (StatusCode.SUCCESS, 1),
        (StatusCode.SUCCESS, [None]),
    ]
    assert ssd.lost_lpas == {}


@pytest.mark.parametrize("route", ROUTES)
def test_finite_cache_read_pays_its_translation_io(route):
    ssd = make_regular_ssd(mapping_cache_entries=2)
    timing = ssd.device.timing
    fill = [("W", lba, [b"x"]) for lba in range(4)]
    # LBA 0 fell out of the two-entry cache: its read misses (one
    # translation read) and evicts a dirty entry (one translation write).
    results = drive(route, ssd, fill + [("R", 0, 1), ("W", 9, [b"y"])])
    read_status, read_data, read_latency = results[4]
    assert (read_status, read_data) == (StatusCode.SUCCESS, [b"x"])
    assert read_latency == 2 * timing.read_us + timing.program_us
    # ...and the next write is not billed for it.
    assert results[5][2] == results[3][2]


@pytest.mark.parametrize("route", ROUTES)
def test_retry_exhausted_write_degrades_the_device(route):
    plan = FaultPlan()
    ssd = make_regular_ssd(faults=FaultHooks(plan))
    plan.add_program_failure(every=1, max_fires=None)
    ops = [
        ("W", 0, [b"never-acked"]),
        ("W", 1, [b"refused"]),
        ("T", 1, 1),  # read-only refuses every mutation, TRIM included
        ("R", 0, 1),
    ]
    results = drive(route, ssd, ops)
    assert [status for status, _r, _l in results] == [
        StatusCode.MEDIA_WRITE_FAULT,
        StatusCode.DEGRADED_READ_ONLY,
        StatusCode.DEGRADED_READ_ONLY,
        StatusCode.SUCCESS,
    ]
    assert results[3][1] == [None]
    assert ssd.degraded_reason is not None


def test_a_range_request_moves_the_clock_once():
    # Every page of the request is admitted at its own cursor while the
    # device clock stays at the arrival; the clock moves at the end.
    ssd = make_timessd()
    admitted_at = []
    serve = ssd.serve_write_at

    def spy(lpa, data, arrival_us):
        admitted_at.append((arrival_us, ssd.clock.now_us))
        return serve(lpa, data, arrival_us)

    ssd.serve_write_at = spy
    ssd.clock.advance(1_000)
    latency = ssd.write_range(3, 4, [b"a", b"b", b"c", b"d"])
    program_us = ssd.device.timing.program_us
    assert [clock for _arrival, clock in admitted_at] == [1_000] * 4
    assert [arrival for arrival, _clock in admitted_at] == [
        1_000 + k * program_us for k in range(4)
    ]
    assert latency == 4 * program_us
    assert ssd.clock.now_us == 1_000 + latency


def _faulty_regular_ssd():
    return make_regular_ssd(faults=FaultHooks(FaultPlan()))


def _real_content_timessd():
    return make_timessd(content_mode=ContentMode.REAL)


def _fail_third_page_program(ssd):
    """Arm program failures on the third page's program and on every
    retry of it: the first two pages complete, the third escapes."""
    plan = ssd.device.faults.plan
    for k in range(3, 4 + ssd.PROGRAM_RETRY_LIMIT):
        plan.add_program_failure(at_op=plan.ops_seen + k)
    return [b"x", b"y", b"z"], ProgramFailureError, 2


def _short_third_page(ssd):
    size = ssd.device.geometry.page_size
    return [b"x" * size, b"y" * size, b"z"], InvalidPageError, 2


def _degraded_by_a_failed_nvme_write(ssd):
    """A three-page NVMe WRITE fails at its third page: the device goes
    read-only and the clock stays at the command's start, behind the
    completion of the two pages it admitted.  The range write that
    follows is refused at its first page."""
    pages, _error, _admitted = _fail_third_page_program(ssd)
    completion = HostNVMeDriver(ssd).controller.submit(_command("W", 0, pages))
    assert completion.status == StatusCode.MEDIA_WRITE_FAULT
    return pages, DegradedModeError, 0


@pytest.mark.parametrize(
    "maker, fail",
    [
        (_faulty_regular_ssd, _fail_third_page_program),
        (_real_content_timessd, _short_third_page),
        (_faulty_regular_ssd, _degraded_by_a_failed_nvme_write),
    ],
    ids=["program-failure", "wrong-size-page", "degraded-first-page"],
)
def test_a_range_write_failing_part_way_leaves_the_clock_at_its_last_page(maker, fail):
    # The clock stands at the completion of the last page the request
    # admitted, where page-by-page writes leave it: page 2's when page 3
    # fails, the arrival when page 1 is refused.
    ssd = maker()
    ssd.clock.advance(1_000)
    pages, error, admitted = fail(ssd)
    arrival, written = ssd.clock.now_us, ssd.host_pages_written
    with pytest.raises(error):
        ssd.write_range(4, 3, pages)
    assert ssd.host_pages_written == written + admitted
    assert ssd.clock.now_us == arrival + admitted * ssd.device.timing.program_us
