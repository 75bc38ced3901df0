"""The hottest latency samples are recorded in place, as ``record`` would.

``flash.read_us`` and ``flash.program_us`` (every page read and program,
GC copies included) and ``timessd.chain.length`` (every chain walk) go
straight into their histogram's buffer, folded at ``FOLD_AT``.  On both
bench devices, churned well past ``FOLD_AT`` samples, each snapshot must
equal a shadow histogram fed the same samples through ``record``, and no
buffer may hold ``FOLD_AT`` samples once an op returns.
"""

import random

import pytest

from repro.bench.config import bench_geometry, make_bench_regular, make_bench_timessd
from repro.flash.device import FlashDevice
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
