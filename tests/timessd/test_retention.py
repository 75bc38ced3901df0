import pytest

from repro.common.clock import SimClock
from repro.flash.timing import FlashTiming
from repro.timessd.bloom import TimeSegmentedBlooms
from repro.timessd.retention import GCOverheadEstimator, RetentionManager


class TestGCOverheadEstimator:
    def make(self, threshold=0.2, period=10):
        return GCOverheadEstimator(FlashTiming(), threshold, period)

    def test_quiet_period_does_not_trigger(self):
        est = self.make()
        for _ in range(10):
            assert not est.note_user_write()
        assert est.periods_evaluated == 1
        assert est.last_overhead_per_write_us == 0

    def test_heavy_gc_triggers(self):
        est = self.make()
        est.note_gc_ops(reads=100, writes=100, erases=10)
        triggered = [est.note_user_write() for _ in range(10)]
        assert triggered[-1] is True
        assert est.periods_exceeded == 1

    def test_equation_1_arithmetic(self):
        timing = FlashTiming()
        est = GCOverheadEstimator(timing, threshold=0.2, period_writes=4)
        est.note_gc_ops(reads=2, writes=1, erases=1, deltas=3)
        for _ in range(4):
            est.note_user_write()
        expected = (
            2 * timing.read_us
            + 1 * timing.program_us
            + 1 * timing.erase_us
            + 3 * timing.delta_compress_us
        ) / 4
        assert est.last_overhead_per_write_us == pytest.approx(expected)

    def test_counters_reset_each_period(self):
        est = self.make(period=2)
        est.note_gc_ops(erases=100)
        est.note_user_write()
        assert est.note_user_write()  # period 1: heavy
        est.note_user_write()
        assert not est.note_user_write()  # period 2: quiet again

    def test_threshold_scales_with_write_cost(self):
        timing = FlashTiming()
        est = GCOverheadEstimator(timing, threshold=0.2, period_writes=1)
        # Exactly at threshold: not exceeded (strict inequality).
        est.note_gc_ops(reads=0, writes=0, erases=0, deltas=0)
        assert not est.note_user_write()

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            GCOverheadEstimator(FlashTiming(), period_writes=0)


class TestRetentionManager:
    def make(self, floor_us=1000):
        clock = SimClock()
        blooms = TimeSegmentedBlooms(clock, capacity_per_filter=1, group_size=1)
        return clock, blooms, RetentionManager(blooms, floor_us)

    def test_shrink_respects_floor(self):
        clock, blooms, mgr = self.make(floor_us=1000)
        blooms.record_invalidation(1)
        clock.advance(10)
        blooms.record_invalidation(2)
        assert mgr.shrink() is None
        assert len(blooms) == 2  # the window did not move

    def test_shrink_after_floor_elapsed(self):
        clock, blooms, mgr = self.make(floor_us=1000)
        blooms.record_invalidation(1)
        clock.advance(10)
        blooms.record_invalidation(2)
        clock.advance(5000)
        segment = mgr.shrink()
        assert segment is not None and segment.dropped
        assert len(blooms) == 1

    def test_retention_metric_delegates(self):
        clock, blooms, mgr = self.make()
        clock.advance(777)
        assert mgr.retention_us() == 777
