"""Admission's two side effects, held on every host route.

Each ``serve_*_at`` raises the idle mark itself, and only
``serve_write_at`` calls the write hook (TimeSSD: the Equation-1 note).
On both bench devices, on the device API, the range API, ``submit`` and
``submit_async`` at QD 1 and QD 8, a mix of reads, writes and TRIMs must
leave the estimator one note per host page written — none per read or
TRIM — and, after every command, the idle mark the rule it replaced
kept: the latest completion of any admitted page, a TRIM completing at
its arrival.
"""

import random

import pytest

from repro.bench.config import bench_geometry, make_bench_regular, make_bench_timessd
from repro.ftl.ssd import BaseSSD
from repro.nvme.commands import NVMeCommand, Opcode
from repro.nvme.controller import NVMeController
from repro.nvme.engine import AsyncNVMeEngine
from repro.timessd.ssd import TimeSSD

DEVICES = {"regular": make_bench_regular, "timessd": make_bench_timessd}
ROUTES = ("ssd", "range", "submit", "async-qd1", "async-qd8")
OPCODES = {"write": Opcode.WRITE, "read": Opcode.READ, "trim": Opcode.DSM}


def reference_mark(monkeypatch, ssd):
    """The idle mark as the old ``_after_host_request(complete, wrote)``
    kept it, computed from what each admitted page returns."""
    mark = [ssd._last_io_end_us]
    write_at = BaseSSD.serve_write_at
    read_at = BaseSSD.serve_read_at
    trim_at = BaseSSD.serve_trim_at

    def serve_write_at(self, lpa, data, arrival_us):
        complete = write_at(self, lpa, data, arrival_us)
        mark[0] = max(mark[0], complete)
        return complete

    def serve_read_at(self, lpa, arrival_us):
        data, complete = read_at(self, lpa, arrival_us)
        mark[0] = max(mark[0], complete)
        return data, complete

    def serve_trim_at(self, lpa, arrival_us):
        dropped = trim_at(self, lpa, arrival_us)
        mark[0] = max(mark[0], arrival_us)
        return dropped

    monkeypatch.setattr(BaseSSD, "serve_write_at", serve_write_at)
    monkeypatch.setattr(BaseSSD, "serve_read_at", serve_read_at)
    monkeypatch.setattr(BaseSSD, "serve_trim_at", serve_trim_at)
    return mark


def count_notes(monkeypatch, ssd):
    """``[write-hook calls, Equation-1 notes]`` (notes stay 0 on a
    device without the estimator)."""
    counts = [0, 0]
    hook = ssd._after_host_request

    def after_host_request(complete_us):
        counts[0] += 1
        return hook(complete_us)

    monkeypatch.setattr(ssd, "_after_host_request", after_host_request)
    if isinstance(ssd, TimeSSD):
        note = ssd.estimator.note_user_write

        def note_user_write():
            counts[1] += 1
            return note()

        monkeypatch.setattr(ssd.estimator, "note_user_write", note_user_write)
    return counts


def mix(seed, working, count, max_pages):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        roll = rng.random()
        kind = "read" if roll < 0.5 else "write" if roll < 0.85 else "trim"
        npages = rng.randint(1, max_pages)
        out.append((kind, rng.randrange(working - max_pages), npages))
    return out


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("device", sorted(DEVICES))
def test_one_note_per_page_written_and_the_old_idle_mark(monkeypatch, device, route):
    ssd = DEVICES[device](geometry=bench_geometry(blocks_per_plane=8))
    mark = reference_mark(monkeypatch, ssd)
    counts = count_notes(monkeypatch, ssd)
    written = ssd.host_pages_written
    timessd = isinstance(ssd, TimeSSD)
    checked = [0]

    def check():
        pages = ssd.host_pages_written - written
        assert counts[0] == pages
        assert counts[1] == (pages if timessd else 0)
        assert ssd._last_io_end_us == mark[0]
        checked[0] += 1

    working = ssd.logical_pages // 2
    commands = mix(7, working, 400, 1 if route == "ssd" else 3)
    rng = random.Random(11)
    if route in ("ssd", "range"):
        for kind, lpa, npages in commands:
            if kind == "write":
                if route == "ssd":
                    ssd.write(lpa)
                else:
                    ssd.write_range(lpa, npages)
            elif kind == "read":
                if route == "ssd":
                    ssd.read(lpa)
                else:
                    ssd.read_range(lpa, npages)
            else:
                for page in range(lpa, lpa + npages):
                    ssd.trim(page)
            check()
            ssd.clock.advance(rng.choice((0, 50, 400, 3000)))
    else:
        nvme = [
            NVMeCommand(OPCODES[kind], slba=lpa, nlb=npages)
            for kind, lpa, npages in commands
        ]
        if route == "submit":
            controller = NVMeController(ssd)
            for command in nvme:
                assert controller.submit(command).ok
                check()
                ssd.clock.advance(rng.choice((0, 50, 400, 3000)))
        else:
            engine = AsyncNVMeEngine(
                ssd, queue_depth=int(route[len("async-qd"):]), queue_pairs=2
            )
            execute_io = engine.controller.execute_io

            def checked_execute_io(command, start_us):
                completion, end = execute_io(command, start_us)
                assert completion.ok
                check()
                return completion, end

            engine.controller.execute_io = checked_execute_io
            for first in range(0, len(nvme), 40):
                engine.process(nvme[first:first + 40])
                ssd.clock.advance(rng.choice((0, 400, 3000)))
    assert checked[0] == len(commands)
    assert ssd.host_pages_written - written > 100
    assert ssd.host_pages_read > 100
