"""The five ledger workloads and their generator-side oracles.

Every workload is ``fn(seed, meter, size)``: it builds a fresh device,
sets it up, then drives the measured phase through ``meter`` (see
:class:`benchmarks.perf.runner.Meter`), which times the calls into the
program, keeps the exact per-op latency list and counts failed checks.
An *op* is one call the generator makes into the system.  The program
only ever sees inputs generated from ``seed``.

Sizes are constants here, not options: later issues cite workloads by
name and expect the same work.  They were cut from the issue's sizing
targets (21-day trace, 120 k commands, 60 crash cycles) to what lets
three rounds of every workload fit the driver's time cap on a 2-core
box; the README records both.

Why these five: ``trace-timessd`` is the paper's Fig 6/7/8 shape and
fires every retention mechanism; ``trace-regular`` replays the same
trace on the baseline, so it is the bypass for every ``repro.timessd``
optimisation; ``qd-read`` is the only one on the event loop and the
read path; ``timekits`` *reads* the retention structures the write
path builds (Table 3 / Fig 11); ``crash-loop`` sweeps the OOB columns
and checkpoints the write path leaves behind.
"""

import random
from dataclasses import dataclass

from repro.bench.config import (
    bench_geometry,
    make_bench_regular,
    make_bench_timessd,
    prefill,
)
from repro.common.units import DAY_US, MS_US, SECOND_US
from repro.flash.page import NULL_PPA
from repro.nvme.commands import NVMeCommand, Opcode
from repro.nvme.controller import NVMeController
from repro.nvme.driver import HostNVMeDriver
from repro.timessd import recovery as timessd_recovery
from repro.timessd.config import ContentMode
from repro.workloads.msr import msr_trace
from repro.workloads.trace import TraceReplayer

# --- Sizes ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSize:
    """``trace-timessd`` / ``trace-regular``: one MSR-like volume replay."""

    requests: int = 9_000
    intensity_scale: float = 2.0
    usage: float = 0.80


@dataclass(frozen=True)
class QdReadSize:
    """``qd-read``: closed loop on the async engine."""

    commands: int = 60_000
    read_share: float = 0.90
    write_share: float = 0.09  # the rest is DSM (trim)
    usage: float = 0.50
    #: Synchronous overwrites before the measured phase, stopping just
    #: short of the first GC round (~6 400 at this usage), so GC runs for
    #: five sixths of the measured phase rather than its last third.
    #: Nothing expires retained versions on the synchronous path: taken
    #: past the watermark, the first GC round finds ~6 k retained pages
    #: spread over ~50 bloom segments, opens a delta block for each and,
    #: on one seed in thirty, runs the free pool dry.
    warmup_writes: int = 5_500
    #: The expiry daemon holds the retention window here (floor: 1 s).
    retention_target_us: int = 2 * SECOND_US
    queue_depth: int = 8
    queue_pairs: int = 2


@dataclass(frozen=True)
class TimeKitsSize:
    """``timekits``: vendor commands over a device with real content."""

    page_size: int = 1024
    blocks_per_plane: int = 32
    usage: float = 0.50
    requests: int = 2_000
    intensity_scale: float = 2.0
    mutation_fraction: float = 0.10
    addr_query_all: int = 2_400
    addr_query: int = 1_200
    addr_query_range: int = 400
    rollback: int = 480
    time_query: int = 1
    time_query_range: int = 1
    pages_per_query: int = 8
    query_threads: int = 4
    scan_threads: int = 8
    #: ADDR_QUERY / ROLLBACK target times are arrival times of requests
    #: in this last share of the set-up trace: a share of the *requests*,
    #: not of the days, because a seed's trace can span four days or
    #: eight and "the last two days" would be a quarter of one history
    #: and half of another.
    lookback_share: float = 0.30
    #: The closing ROLLBACK_ALL goes back to just before this many of the
    #: last ROLLBACKs, undoing what they restored.  Aimed at a time in
    #: the set-up trace its cost swings 8x between seeds and, being one
    #: op in 5 k, takes the mean latency with it.
    rollback_all_undoes: int = 150
    #: ...but never further back than the retention floor less this, so
    #: the as-of version is always one the device guarantees to hold.
    floor_margin_us: int = DAY_US // 24


@dataclass(frozen=True)
class CrashLoopSize:
    """``crash-loop``: host I/O bursts separated by power cuts."""

    usage: float = 0.50
    requests: int = 1_500
    intensity_scale: float = 2.0
    checkpoint_interval_blocks: int = 16
    cycles: int = 40
    ios_per_cycle: int = 64
    write_share: float = 0.60
    read_share: float = 0.30  # the rest is trim
    gap_us: int = 2 * MS_US


# --- Shared pieces ---------------------------------------------------------------

#: The MSR volume every trace is synthesised from (hardware monitoring:
#: 64% writes, bursty, diurnal).
VOLUME = "hm"

#: Traces are cut at a request count, not a day count: the generator's
#: bursts are heavy-tailed, so a fixed number of days carries 7.5 k to
#: 9.5 k requests depending on the seed and every metric would inherit
#: that spread.  The horizon only has to be long enough never to bind
#: (the volume averages ~900 requests a day on the bench device, ~10
#: days for the trace workloads' 9 k).
HORIZON_DAYS = 60


def _trace(ssd, working, size, seed):
    trace = list(
        msr_trace(
            VOLUME,
            ssd.logical_pages,
            days=HORIZON_DAYS,
            seed=seed,
            intensity_scale=size.intensity_scale,
            max_requests=size.requests,
            working_pages=working,
        )
    )
    if len(trace) != size.requests:
        raise ValueError("trace horizon bound before %d requests" % size.requests)
    return trace


def _replay_open_loop(ssd, trace, meter):
    """Open loop in *simulated* time: each request is issued when the
    trace says, or as soon after as the device is free, and its latency
    counts from the time it was due."""
    clock = ssd.clock
    for record in trace:
        due_us = record.timestamp_us
        clock.advance_to(due_us)
        late_us = clock.now_us - due_us
        if record.op == "W":
            meter.call(ssd.write_range, record.lpa, record.npages)
        elif record.op == "R":
            meter.call(ssd.read_range, record.lpa, record.npages)
        else:
            raise ValueError("trace op %r has no replay rule" % (record.op,))
        meter.op(clock.now_us - due_us, late_us)


def _trace_workload(make_device, seed, meter, size):
    ssd = make_device()
    working = int(ssd.logical_pages * size.usage)
    prefill(ssd, working)
    trace = _trace(ssd, working, size, seed)
    with meter.measuring(ssd):
        _replay_open_loop(ssd, trace, meter)


# --- trace-timessd / trace-regular -------------------------------------------------


def trace_timessd(seed, meter, size=TraceSize()):
    _trace_workload(make_bench_timessd, seed, meter, size)


def trace_regular(seed, meter, size=TraceSize()):
    _trace_workload(make_bench_regular, seed, meter, size)


# --- qd-read -----------------------------------------------------------------------


def qd_read(seed, meter, size=QdReadSize()):
    ssd = make_bench_timessd(
        retention_floor_us=SECOND_US,
        bloom_segment_max_age_us=125 * MS_US,
        bloom_capacity=256,
    )
    working = int(ssd.logical_pages * size.usage)
    prefill(ssd, working)
    rng = random.Random(seed)
    for _ in range(size.warmup_writes):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(200)
    commands = []
    for _ in range(size.commands):
        lpa = rng.randrange(working)
        roll = rng.random()
        if roll < size.read_share:
            opcode = Opcode.READ
        elif roll < size.read_share + size.write_share:
            opcode = Opcode.WRITE
        else:
            opcode = Opcode.DSM
        commands.append(NVMeCommand(opcode, slba=lpa, nlb=1))
    driver = HostNVMeDriver(ssd)
    with meter.measuring(ssd):
        outcome = meter.call(
            driver.submit_async,
            commands,
            queue_depth=size.queue_depth,
            queue_pairs=size.queue_pairs,
            daemons=True,
            retention_target_us=size.retention_target_us,
        )
        completions = [] if outcome is meter.FAILED else outcome[0]
        for completion in completions:
            meter.op(completion.latency_us)
            if not completion.ok:
                meter.fail("qd-read %s" % completion.status.name)
        # A submit_async that raised lost every command it was handed.
        for _ in range(len(commands) - len(completions)):
            meter.op(0)
            meter.fail("qd-read command never completed")


# --- timekits ----------------------------------------------------------------------


class ShadowHistory:
    """The generator's own record of every version it wrote.

    Page content follows the paper's content-locality assumption: each
    rewrite changes ``mutation_fraction`` of the previous version's
    bytes.  A version is ``(low_us, high_us, data)``: the generator
    knows the exact write time of what it wrote itself
    (``low_us == high_us``) and only brackets the time of a page the
    device wrote on its behalf during a rollback.
    """

    def __init__(self, page_size, rng, mutation_fraction):
        self._page_size = page_size
        self._rng = rng
        self._changes = max(1, int(page_size * mutation_fraction))
        self._current = {}
        self.versions = {}

    def next_version(self, lpa, now_us):
        rng = self._rng
        page = self._current.get(lpa)
        if page is None:
            page = bytearray(rng.randbytes(self._page_size))
            self._current[lpa] = page
        else:
            positions = rng.sample(range(self._page_size), self._changes)
            for position, value in zip(positions, rng.randbytes(self._changes)):
                page[position] = value
        data = bytes(page)
        self.versions.setdefault(lpa, []).append((now_us, now_us, data))
        return data

    def as_of(self, lpa, t_us):
        """The version current at ``t_us`` (newest one written by then)."""
        best = None
        for version in self.versions.get(lpa, ()):
            if version[1] <= t_us:
                best = version
        return best

    def data_as_of(self, lpa, t_us):
        version = self.as_of(lpa, t_us)
        return None if version is None else version[2]

    def note_restored(self, lpa, data, low_us, high_us):
        """The device rewrote ``lpa`` with ``data`` some time in the window."""
        self._current[lpa] = bytearray(data)
        self.versions[lpa].append((low_us, high_us, data))


def _matches(returned, low_us, high_us, data):
    return any(
        low_us <= version.timestamp_us <= high_us and version.data == data
        for version in returned
    )


def _timekits_commands(rng, size, working, trace, start_us, floor_us):
    """The seeded shuffle of vendor commands, ROLLBACK_ALL last."""
    oldest_us = start_us - floor_us + size.floor_margin_us

    def arrival_us(share_from_end):
        record = trace[int(len(trace) * (1.0 - share_from_end))]
        return max(record.timestamp_us, oldest_us)

    span = size.pages_per_query
    plan = (
        [Opcode.ADDR_QUERY_ALL] * size.addr_query_all
        + [Opcode.ADDR_QUERY] * size.addr_query
        + [Opcode.ADDR_QUERY_RANGE] * size.addr_query_range
        + [Opcode.ROLLBACK] * size.rollback
        + [Opcode.TIME_QUERY] * size.time_query
        + [Opcode.TIME_QUERY_RANGE] * size.time_query_range
    )
    rng.shuffle(plan)
    plan.append(Opcode.ROLLBACK_ALL)  # rewrites the device: always last
    commands = []
    for opcode in plan:
        t_us = arrival_us(size.lookback_share * rng.random())
        if opcode == Opcode.ADDR_QUERY_ALL:
            command = NVMeCommand(opcode, slba=rng.randrange(working), nlb=1)
        elif opcode in (Opcode.TIME_QUERY, Opcode.TIME_QUERY_RANGE):
            command = NVMeCommand(
                opcode, t=t_us, t2=start_us, threads=size.scan_threads
            )
        elif opcode == Opcode.ROLLBACK_ALL:
            # Its target time is set when it is issued.
            command = NVMeCommand(opcode, t=start_us, threads=size.scan_threads)
        else:
            command = NVMeCommand(
                opcode,
                slba=rng.randrange(working - span),
                nlb=span,
                t=t_us,
                t2=start_us,
                threads=size.query_threads,
            )
        commands.append(command)
    return commands


def timekits(seed, meter, size=TimeKitsSize()):
    ssd = make_bench_timessd(
        geometry=bench_geometry(
            page_size=size.page_size, blocks_per_plane=size.blocks_per_plane
        ),
        content_mode=ContentMode.REAL,
    )
    floor_us = ssd.config.retention_floor_us
    working = int(ssd.logical_pages * size.usage)
    rng = random.Random(seed)
    shadow = ShadowHistory(size.page_size, rng, size.mutation_fraction)

    def write_page(lpa):
        ssd.write(lpa, shadow.next_version(lpa, ssd.clock.now_us))

    for lpa in range(working):
        write_page(lpa)
        ssd.clock.advance(200)
    trace = _trace(ssd, working, size, seed)
    for record in trace:
        ssd.clock.advance_to(record.timestamp_us)
        if record.op == "W":
            for lpa in range(record.lpa, record.lpa + record.npages):
                write_page(lpa)
        else:
            ssd.read_range(record.lpa, record.npages)

    start_us = ssd.clock.now_us
    commands = _timekits_commands(rng, size, working, trace, start_us, floor_us)

    controller = NVMeController(ssd)
    meter.tally["vendor_commands"] = len(commands)
    answers = []  # (command, issued_us, completion, follow-up read)

    def submit(command):
        completion = meter.call(controller.submit, command)
        if completion is meter.FAILED:
            meter.op(0)
            return None
        meter.op(completion.latency_us)
        if not completion.ok:
            meter.fail(
                "timekits %s: %s"
                % (Opcode(command.opcode).name, completion.status.name)
            )
            return None
        return completion

    rollbacks_issued_us = []
    with meter.measuring(ssd):
        for command in commands:
            issued_us = ssd.clock.now_us
            if command.opcode == Opcode.ROLLBACK:
                rollbacks_issued_us.append(issued_us)
            elif command.opcode == Opcode.ROLLBACK_ALL:
                undone = rollbacks_issued_us[-size.rollback_all_undoes:]
                if undone:
                    command.t = undone[0] - 1
            completion = submit(command)
            readback = None
            if command.opcode == Opcode.ROLLBACK and completion is not None:
                done_us = ssd.clock.now_us
                readback = submit(
                    NVMeCommand(Opcode.READ, slba=command.slba, nlb=command.nlb)
                )
                # Later queries must see what the rollback wrote.
                for lpa in range(command.slba, command.slba + command.nlb):
                    target = shadow.as_of(lpa, command.t)
                    if target is not shadow.as_of(lpa, issued_us):
                        shadow.note_restored(lpa, target[2], issued_us, done_us)
            answers.append((command, issued_us, completion, readback))

    # Verification is deferred to here so none of it is inside a timer.
    for command, issued_us, completion, readback in answers:
        if completion is None:
            continue
        if command.opcode in (Opcode.ADDR_QUERY_ALL, Opcode.ADDR_QUERY_RANGE):
            meter.tally["versions_returned"] += sum(
                len(versions) for versions in completion.result.values()
            )
        for why in _check_answer(
            shadow, floor_us, command, issued_us, completion.result, readback
        ):
            meter.fail(why)
    final = commands[-1]
    for lpa in range(working):
        data, _response = ssd.read(lpa)
        if data != shadow.data_as_of(lpa, final.t):
            meter.fail("timekits ROLLBACK_ALL left LPA %d off its as-of state" % lpa)


def _check_answer(shadow, floor_us, command, issued_us, result, readback):
    """Problems with one vendor command's answer, judged from outside.

    The paper's guarantee: every version younger than the retention
    floor comes back with its exact timestamp and bytes, and a rollback
    restores exactly the as-of state.
    """
    opcode = command.opcode
    lpas = range(command.slba, command.slba + command.nlb)
    name = Opcode(opcode).name
    if opcode == Opcode.ADDR_QUERY_ALL:
        for lpa in lpas:
            for low_us, high_us, data in shadow.versions.get(lpa, ()):
                if high_us > issued_us or low_us < issued_us - floor_us:
                    continue
                if not _matches(result[lpa], low_us, high_us, data):
                    yield "%s dropped LPA %d version @%d" % (name, lpa, low_us)
    elif opcode == Opcode.ADDR_QUERY:
        for lpa in lpas:
            version = result[lpa]
            if version is None or version.data != shadow.data_as_of(lpa, command.t):
                yield "%s LPA %d is not its state as of %d" % (name, lpa, command.t)
    elif opcode == Opcode.ADDR_QUERY_RANGE:
        for lpa in lpas:
            for low_us, high_us, data in shadow.versions.get(lpa, ()):
                if command.t <= low_us and high_us <= command.t2:
                    if not _matches(result[lpa], low_us, high_us, data):
                        yield "%s dropped LPA %d version @%d" % (name, lpa, low_us)
    elif opcode == Opcode.ROLLBACK:
        pages = readback.result if readback is not None else [None] * command.nlb
        for lpa, data in zip(lpas, pages):
            if data != shadow.data_as_of(lpa, command.t):
                yield "%s LPA %d read back off its as-of state" % (name, lpa)
    elif opcode in (Opcode.TIME_QUERY, Opcode.TIME_QUERY_RANGE):
        until_us = command.t2 if opcode == Opcode.TIME_QUERY_RANGE else issued_us
        for lpa, versions in shadow.versions.items():
            stamps = result.get(lpa, ())
            for low_us, high_us, _data in versions:
                # Only versions the generator timed itself: exact stamps.
                if low_us == high_us and command.t <= low_us <= until_us:
                    if low_us not in stamps:
                        yield "%s missed LPA %d write @%d" % (name, lpa, low_us)


# --- crash-loop --------------------------------------------------------------------


def _power_cycle(ssd):
    # Through the module, so the traced pass sees the patched functions.
    timessd_recovery.simulate_power_loss(ssd)
    return timessd_recovery.rebuild_from_flash(ssd)


def crash_loop(seed, meter, size=CrashLoopSize()):
    ssd = make_bench_timessd(
        checkpoint_interval_blocks=size.checkpoint_interval_blocks
    )
    working = int(ssd.logical_pages * size.usage)
    prefill(ssd, working)
    TraceReplayer(ssd).replay(
        _trace(ssd, working, size, seed), stop_on_device_full=False
    )
    rng = random.Random(seed)
    clock = ssd.clock
    last_acked_write = {}  # lpa -> True when its last acked op was a write
    with meter.measuring(ssd):
        due_us = clock.now_us
        for _cycle in range(size.cycles):
            for _ in range(size.ios_per_cycle):
                due_us += size.gap_us
                clock.advance_to(due_us)
                late_us = clock.now_us - due_us
                lpa = rng.randrange(working)
                roll = rng.random()
                if roll < size.write_share:
                    if meter.call(ssd.write, lpa) is not meter.FAILED:
                        last_acked_write[lpa] = True
                elif roll < size.write_share + size.read_share:
                    meter.call(ssd.read, lpa)
                elif meter.call(ssd.trim, lpa) is not meter.FAILED:
                    last_acked_write[lpa] = False
                meter.op(clock.now_us - due_us, late_us)
            with meter.untimed():
                before = {
                    lpa: ssd.mapping.lookup(lpa)
                    for lpa, wrote in last_acked_write.items()
                    if wrote
                }
            cut_us = clock.now_us
            meter.call(_power_cycle, ssd)
            meter.op(clock.now_us - cut_us)
            due_us = max(due_us, clock.now_us)
            with meter.untimed():
                for lpa, ppa in before.items():
                    if ppa == NULL_PPA or ssd.mapping.lookup(lpa) != ppa:
                        meter.fail("crash-loop LPA %d remapped by recovery" % lpa)


WORKLOADS = {
    "trace-timessd": (
        trace_timessd,
        "Fig 6/7/8 shape: foreground and idle-window GC, bloom invalidation, "
        "background delta compression and retention shrink all fire",
    ),
    "trace-regular": (
        trace_regular,
        "the same trace on RegularSSD: bypasses every repro.timessd "
        "optimisation; its sim_* against trace-timessd is the Fig 6/7 overhead",
    ),
    "qd-read": (
        qd_read,
        "the only workload on the event loop: 90% reads at QD 8 x 2 queue "
        "pairs with daemons, so repro.nvme and repro.sched show up",
    ),
    "timekits": (
        timekits,
        "Table 3 / Fig 11: reads the retention structures the write path "
        "builds (chain walks, real XOR+LZF codec, rollback)",
    ),
    "crash-loop": (
        crash_loop,
        "recovery time: OOB sweep, checkpoints and TimeSSD rebuild after "
        "every 64 host I/Os",
    ),
}
