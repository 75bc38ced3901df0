"""Physics invariants of the overlapped request path.

Once requests genuinely overlap, the busy-time accounting has sharper
bounds than the synchronous path: total lane-busy time must stay
*strictly* under elapsed x lanes (perfect saturation of every lane at
every instant is unreachable with real command gaps), concurrency must
actually happen at depth, and histograms must stay internally
consistent under any interleaving.
"""

import pytest

from repro.nvme.commands import NVMeCommand, Opcode
from repro.nvme.engine import AsyncNVMeEngine

from tests.conftest import make_regular_ssd, make_timessd


def churn(ssd, queue_depth, commands=256, span=None):
    engine = AsyncNVMeEngine(ssd, queue_depth=queue_depth)
    span = span if span is not None else ssd.logical_pages // 2
    completions, elapsed = engine.process(
        [
            NVMeCommand(Opcode.WRITE, slba=i % span, nlb=1)
            for i in range(commands)
        ]
    )
    assert all(c.ok for c in completions)
    return engine, elapsed


class TestBusyTimeBounds:
    @pytest.mark.parametrize("maker", [make_regular_ssd, make_timessd])
    def test_busy_strictly_under_elapsed_times_lanes(self, maker):
        # Chip timelines carry the cell-op occupancy (the default
        # zero-cost bus folds channel time into them).  The stream mixes
        # reads into the writes: uneven command costs end the lanes at
        # different times, so sustained perfect saturation of every lane
        # is impossible and the bound is strict.
        ssd = maker()
        engine = AsyncNVMeEngine(ssd, queue_depth=8)
        span = ssd.logical_pages // 2
        commands = [
            NVMeCommand(
                Opcode.READ if i % 3 == 2 else Opcode.WRITE,
                slba=(i * 7) % span if i % 3 == 2 else i % span,
                nlb=1,
            )
            for i in range(256)
        ]
        completions, _ = engine.process(commands)
        assert all(c.ok for c in completions)
        snap = ssd.metrics_snapshot()
        elapsed = snap["gauges"]["sim.now_us"]
        lanes = sum(
            1 for name in snap["gauges"] if name.startswith("flash.chip_busy_us.")
        )
        assert elapsed > 0 and lanes > 0
        assert 0 < snap["gauges"]["flash.chip_busy_us_total"] < elapsed * lanes
        for name, value in snap["gauges"].items():
            if name.startswith("flash.chip_busy_us."):
                assert 0 <= value <= elapsed

    def test_overlap_beats_any_single_lane(self):
        # At depth, elapsed must be less than the single-channel serial
        # cost of the same command stream - the throughput *is* the
        # overlap.
        ssd = make_regular_ssd()
        _engine, elapsed = churn(ssd, queue_depth=8, commands=256)
        serial_cost = 256 * ssd.device.timing.program_us
        assert elapsed < serial_cost


class TestRealConcurrency:
    @pytest.mark.parametrize("queue_depth", [4, 8])
    def test_inflight_reaches_depth(self, queue_depth):
        ssd = make_regular_ssd()
        engine, _ = churn(ssd, queue_depth=queue_depth)
        assert engine.inflight_max == queue_depth
        snap = ssd.metrics_snapshot()
        assert snap["gauges"]["nvme.engine.inflight_max"] == queue_depth

    @pytest.mark.parametrize("queue_depth, queue_pairs", [(2, 1), (8, 1), (4, 2)])
    def test_nothing_stays_in_flight_across_pumps(self, queue_depth, queue_pairs):
        # A slot worker that carries the in-flight count across its wait
        # loses every overlapping worker's decrement: the first pump
        # still peaks at the depth, the leak shows once it has drained
        # and compounds in the next one.
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(
            ssd, queue_depth=queue_depth, queue_pairs=queue_pairs
        )
        for _pump in range(2):
            engine.process(
                [NVMeCommand(Opcode.WRITE, slba=i, nlb=1) for i in range(64)]
            )
            assert engine._inflight == 0
            assert engine.inflight_max == queue_depth * queue_pairs

    def test_channel_queues_actually_deepen(self):
        ssd = make_regular_ssd()
        churn(ssd, queue_depth=8)
        snap = ssd.metrics_snapshot()
        assert snap["gauges"]["flash.qdepth_max"] >= 2

    def test_qd1_has_no_overlap(self):
        ssd = make_regular_ssd()
        engine, _ = churn(ssd, queue_depth=1)
        assert engine.inflight_max == 1


class TestHistogramConsistencyUnderOverlap:
    @pytest.mark.parametrize("maker", [make_regular_ssd, make_timessd])
    def test_counts_equal_bucket_sums(self, maker):
        ssd = maker()
        churn(ssd, queue_depth=8)
        snap = ssd.metrics_snapshot()
        assert snap["histograms"]
        for name, hist in snap["histograms"].items():
            bucket_sum = sum(count for _low, count in hist["buckets"])
            assert hist["count"] == bucket_sum, name
