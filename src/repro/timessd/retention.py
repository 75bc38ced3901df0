"""Retention duration management (paper §3.4) and Equation 1 (§3.8).

The garbage collector reports its operation counts; once per period of
``N_fixed`` user page writes the estimator evaluates

    (N_read*C_read + N_write*C_write + N_erase*C_erase + N_delta*C_delta)
    ------------------------------------------------------------------- > TH * C_write
                               N_fixed

and, when the average GC overhead per user write exceeds the threshold
(20% of a page-write cost by default), asks the retention manager to
shrink the window by recycling the oldest bloom segment — never past the
guaranteed floor (three days by default).
"""

from repro.common.atomic import atomic_section


class GCOverheadEstimator:
    """Periodic Equation-1 evaluation."""

    def __init__(self, timing, threshold=0.20, period_writes=1024):
        if period_writes <= 0:
            raise ValueError("period_writes must be positive")
        self._timing = timing
        self.threshold = threshold
        self.period_writes = period_writes
        self._user_writes_in_period = 0
        self._gc_reads = 0
        self._gc_writes = 0
        self._gc_erases = 0
        self._gc_deltas = 0
        self.last_overhead_per_write_us = 0.0
        self.periods_evaluated = 0
        self.periods_exceeded = 0

    def note_gc_ops(self, reads=0, writes=0, erases=0, deltas=0):
        self._gc_reads += reads
        self._gc_writes += writes
        self._gc_erases += erases
        self._gc_deltas += deltas

    def note_user_write(self):
        """Count one user page write; True when the period closed with
        overhead above threshold (caller should shrink retention)."""
        self._user_writes_in_period += 1
        if self._user_writes_in_period < self.period_writes:
            return False
        return self._close_period()

    def _close_period(self):
        cost_us = self._timing.gc_overhead_us(
            self._gc_reads, self._gc_writes, self._gc_erases, self._gc_deltas
        )
        self.last_overhead_per_write_us = cost_us / self.period_writes
        self._user_writes_in_period = 0
        self._gc_reads = self._gc_writes = self._gc_erases = self._gc_deltas = 0
        self.periods_evaluated += 1
        limit = self._timing.gc_overhead_limit_us(self.threshold)
        exceeded = self.last_overhead_per_write_us > limit
        if exceeded:
            self.periods_exceeded += 1
        return exceeded

    def overshoot_ratio(self):
        """How far the last period's overhead exceeded the threshold.

        1.0 means exactly at threshold; the retention manager shrinks
        more aggressively the further GC overshoots.
        """
        limit = self._timing.gc_overhead_limit_us(self.threshold)
        if limit <= 0:
            return 0.0
        return self.last_overhead_per_write_us / limit


class RetentionManager:
    """Couples the bloom segment chain to the floor guarantee.

    ``shrink`` recycles the oldest segment if (and only if) every page it
    retains has already been held for at least the floor; otherwise the
    window cannot move and the caller must either wait or — when free
    space is truly exhausted — stop serving writes (the paper's alarm
    behaviour, surfaced here as :class:`RetentionViolationError` by the
    device).
    """

    def __init__(self, blooms, floor_us):
        self.blooms = blooms
        self.floor_us = floor_us

    def can_shrink(self):
        return self.blooms.can_drop_oldest(self.floor_us)

    @atomic_section(
        "the floor check and the bloom-window drop are one decision: a "
        "suspension in between could admit a second shrink that takes "
        "the window below the configured floor"
    )
    def shrink(self):
        """Drop the oldest segment if the floor allows; returns it or None."""
        if not self.can_shrink():
            return None
        return self.blooms.drop_oldest()

    def retention_us(self):
        return self.blooms.retention_us()

    def window_start_us(self):
        """The guaranteed start, ``min(window start, now - floor)``: every
        version invalidated after it is still on flash (DESIGN.md)."""
        start = self.blooms.window_start_us()
        return min(start, start + self.blooms.retention_us() - self.floor_us)
