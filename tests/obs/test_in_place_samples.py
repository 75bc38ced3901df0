"""The hottest latency samples are recorded in place, as ``record`` would.

``flash.read_us`` and ``flash.program_us`` (every page read and program,
GC copies included), ``timessd.chain.length`` (every chain walk),
``ftl.read_us`` / ``ftl.write_us`` (every admitted host page) and the
controller's ``nvme.op.*_us`` (every successful command) go straight
into their histogram's buffer, folded at ``FOLD_AT``.  On both bench
devices, churned well past ``FOLD_AT`` samples, each snapshot must equal
a shadow histogram fed the same samples through ``record``, and no
buffer may hold ``FOLD_AT`` samples once an op (or a pump) returns.
"""

import random

import pytest

from repro.bench.config import bench_geometry, make_bench_regular, make_bench_timessd
from repro.flash.device import FlashDevice
from repro.ftl.ssd import BaseSSD
from repro.nvme.commands import NVMeCommand, Opcode
from repro.nvme.controller import NVMeController
from repro.nvme.engine import AsyncNVMeEngine
from repro.obs import LatencyHistogram
from repro.timekits.api import TimeKits
from repro.timessd.ssd import TimeSSD

IN_PLACE = ("flash.read_us", "flash.program_us", "timessd.chain.length")


def shadow_histograms(monkeypatch):
    """Shadows fed through ``record`` by wrappers around the three sites."""
    shadows = {name: LatencyHistogram(name) for name in IN_PLACE}
    read_page = FlashDevice.read_page
    book_program = FlashDevice._book_program
    version_chain = TimeSSD.version_chain

    def shadowed_read(self, ppa, now_us=0, retry_step=0):
        result = read_page(self, ppa, now_us, retry_step)
        shadows["flash.read_us"].record(result[0] - now_us)
        return result

    def shadowed_program(self, pba, ppa, now_us):
        complete = book_program(self, pba, ppa, now_us)
        shadows["flash.program_us"].record(complete - now_us)
        return complete

    def shadowed_walk(self, *args, **kwargs):
        versions, complete = version_chain(self, *args, **kwargs)
        shadows["timessd.chain.length"].record(len(versions))
        return versions, complete

    monkeypatch.setattr(FlashDevice, "read_page", shadowed_read)
    monkeypatch.setattr(FlashDevice, "_sense", shadowed_read)  # GC copies
    monkeypatch.setattr(FlashDevice, "_book_program", shadowed_program)
    monkeypatch.setattr(TimeSSD, "version_chain", shadowed_walk)
    return shadows


@pytest.mark.parametrize("make", [make_bench_regular, make_bench_timessd])
def test_in_place_samples_snapshot_as_recorded_samples(monkeypatch, make):
    ssd = make(geometry=bench_geometry(blocks_per_plane=8))
    shadows = shadow_histograms(monkeypatch)
    metrics = ssd.obs.metrics
    fold_at = LatencyHistogram.FOLD_AT
    names = [name for name in IN_PLACE if metrics.get(name) is not None]
    histograms = [metrics.histogram(name) for name in names]
    assert len(names) == (3 if isinstance(ssd, TimeSSD) else 2)

    def after_op():
        for histogram in histograms:
            assert len(histogram.samples) < fold_at, histogram.name

    rng = random.Random(3)
    working = ssd.logical_pages // 2
    for i in range(3 * ssd.device.core.total_pages // 2):
        ssd.write(rng.randrange(working))
        after_op()
        if i % 2:
            ssd.read(rng.randrange(working))
            after_op()
        ssd.clock.advance(200)
    assert ssd.gc_runs  # GC copies read and program too
    if isinstance(ssd, TimeSSD):
        kit = TimeKits(ssd)
        for lpa in range(fold_at + 100):
            kit.addr_query_all(lpa % working)
            after_op()
    for name in names:
        assert shadows[name].count > fold_at
        assert metrics.histogram(name).snapshot() == shadows[name].snapshot()


QUEUED = ("ftl.read_us", "ftl.write_us")


@pytest.mark.parametrize("make", [make_bench_regular, make_bench_timessd])
def test_queued_route_samples_snapshot_as_recorded_samples(monkeypatch, make):
    # The host-page admission samples (``ftl.read_us`` / ``ftl.write_us``)
    # and the controller's per-opcode latencies, on a QD-8 x 2-pair mix
    # of READ, WRITE and DSM, each past ``FOLD_AT``.
    ssd = make(geometry=bench_geometry(blocks_per_plane=8))
    shadows = {name: LatencyHistogram(name) for name in QUEUED}
    serve_read_at = BaseSSD.serve_read_at
    serve_write_at = BaseSSD.serve_write_at
    execute_io = NVMeController.execute_io

    def shadowed_read(self, lpa, arrival_us):
        data, complete = serve_read_at(self, lpa, arrival_us)
        shadows["ftl.read_us"].record(complete - arrival_us)
        return data, complete

    def shadowed_write(self, lpa, data, arrival_us):
        complete = serve_write_at(self, lpa, data, arrival_us)
        shadows["ftl.write_us"].record(complete - arrival_us)
        return complete

    def shadowed_execute_io(self, command, start_us):
        completion, end = execute_io(self, command, start_us)
        if completion.ok:
            name = "nvme.op.%s_us" % command.opcode.name
            shadow = shadows.setdefault(name, LatencyHistogram(name))
            shadow.record(completion.latency_us)
        return completion, end

    monkeypatch.setattr(BaseSSD, "serve_read_at", shadowed_read)
    monkeypatch.setattr(BaseSSD, "serve_write_at", shadowed_write)
    monkeypatch.setattr(NVMeController, "execute_io", shadowed_execute_io)
    engine = AsyncNVMeEngine(ssd, queue_depth=8, queue_pairs=2)
    fold_at = LatencyHistogram.FOLD_AT
    rng = random.Random(5)
    working = ssd.logical_pages // 2
    opcodes = (Opcode.READ, Opcode.WRITE, Opcode.DSM)
    for lpa in range(working):
        ssd.write(lpa)
    for _round in range(12):
        commands = [
            NVMeCommand(rng.choice(opcodes), slba=rng.randrange(working), nlb=1)
            for _ in range(320)
        ]
        completions, _elapsed = engine.process(commands)
        assert all(completion.ok for completion in completions)
        for name in shadows:
            assert len(ssd.obs.metrics.histogram(name).samples) < fold_at, name
        ssd.clock.advance(rng.choice((0, 500, 5000)))
    metrics = ssd.obs.metrics
    latencies = sorted(
        name for name in metrics.snapshot()["histograms"]
        if name.startswith("nvme.op.")
    )
    assert latencies == ["nvme.op.DSM_us", "nvme.op.READ_us", "nvme.op.WRITE_us"]
    for name in QUEUED + tuple(latencies):
        assert shadows[name].count > fold_at, name
        assert metrics.histogram(name).snapshot() == shadows[name].snapshot(), name
