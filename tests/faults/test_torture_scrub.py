"""Crash-point torture with aging + patrol scrub enabled (ISSUE 7).

The scrub preset turns on the time-aware error model and the patrol
scrubber, so the enumerated crash points also land inside patrol reads,
read-retry ladders and scrub refresh migrations.  The contract under
test: a power cut mid-refresh never loses the at-risk page's only
intact copy — either the old copy is still committed, or the new copy
is, and recovery finds whichever one is.
"""

import pytest

from repro.common.errors import PowerCutError
from repro.faults.plan import FaultPlan
from repro.faults.torture import (
    _build_ssd,
    _replay,
    build_workload,
    run_crash_point,
    run_torture,
    scrub_preset,
)
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.verify import DeviceAuditor


class TestScrubSweep:
    def test_smoke_sweep_recovers_and_actually_scrubbed(self):
        report = run_torture(scrub_preset(ops=100, crash_every=31))
        assert report.ok, "\n".join(report.summary_lines())
        # The sweep is only meaningful if scrub work really happened:
        # patrol reads and refresh migrations are flash ops, so crash
        # points landed inside them.
        assert report.scrub_patrol_reads > 0
        assert report.scrub_refreshes > 0
        assert any("scrub coverage" in line for line in report.summary_lines())

    def test_torn_cut_with_idle_windows_recovers(self):
        """Pinned regression: cut 57 of the default scrub preset tears a
        host program and leaves the torn page on flash; the wide idle
        windows then run background compression after recovery, which
        once compressed the torn residue into a forged version."""
        outcome = run_crash_point(scrub_preset(), cut_at=57)
        assert outcome.ok, outcome.problems
        assert outcome.torn_pages == 1


def _discover_refresh_ops(config, attr):
    """Flash-op indices at which the clean run enters a refresh step.

    Spies on the refresh step named ``attr`` — the scrubber's own
    ``_refresh_valid``, or the device's ``_settle_stale_page``, counted
    only when a scrub window called it (GC and idle compression settle
    stale pages too) — and records the fault plan's op counter at entry:
    the next flash op is the refresh's first media operation, so
    ``index + 1`` is a mid-refresh crash point.
    """
    workload = build_workload(config)
    plan = FaultPlan(seed=config.seed)
    ssd = _build_ssd(config, plan)
    marks = []
    scrubbing = []
    target = ssd.scrubber if attr == "_refresh_valid" else ssd
    original = getattr(target, attr)
    run_window = ssd.scrubber.run_window

    def spy(*args, **kwargs):
        if target is ssd.scrubber or scrubbing:
            marks.append(plan.ops_seen)
        return original(*args, **kwargs)

    def scrub_window(*args, **kwargs):
        scrubbing.append(True)
        try:
            return run_window(*args, **kwargs)
        finally:
            scrubbing.pop()

    setattr(target, attr, spy)
    ssd.scrubber.run_window = scrub_window
    _replay(ssd, workload, config.gap_us)
    return marks


class TestCutInsideRefresh:
    CONFIG = scrub_preset()

    def _check_cuts(self, marks):
        assert marks, "the clean run never refreshed anything"
        workload = build_workload(self.CONFIG)
        for mark in marks[:4]:
            outcome = run_crash_point(self.CONFIG, mark + 1, workload)
            assert outcome.ok, (mark, outcome.problems)

    def test_cut_inside_valid_page_refresh_migration(self):
        self._check_cuts(_discover_refresh_ops(self.CONFIG, "_refresh_valid"))

    def test_cut_inside_retained_version_refresh(self):
        self._check_cuts(
            _discover_refresh_ops(self.CONFIG, "_settle_stale_page")
        )


class TestRefreshDuplicateRecovery:
    """A cut between the refresh program and the (volatile) PRT mark
    leaves two intact copies with the same (LPA, timestamp) on flash."""

    def _ssd_with_duplicate(self):
        config = scrub_preset()
        plan = FaultPlan(seed=config.seed)
        ssd = _build_ssd(config, plan)
        payload = (b"dup-victim").ljust(ssd.device.geometry.page_size, b"\xEE")
        try:
            ssd.write(5, payload)
        except PowerCutError:  # pragma: no cover - no fault armed
            raise
        head = ssd.mapping.lookup(5)
        # Force a refresh migration of the live head, then erase the
        # volatile PRT mark as a crash would.
        ssd.scrubber._scrub_page(head, ssd.clock.now_us, force_refresh=True)
        new_head = ssd.mapping.lookup(5)
        assert new_head != head
        ts = ssd.device.peek_page(head).oob.timestamp_us
        assert ssd.device.peek_page(new_head).oob.timestamp_us == ts
        return ssd, payload, ts, (head, new_head)

    def test_rebuild_marks_the_duplicate_reclaimable(self):
        ssd, payload, ts, copies = self._ssd_with_duplicate()
        simulate_power_loss(ssd)
        rebuild_from_flash(ssd)
        mapped = ssd.mapping.lookup(5)
        assert mapped in copies
        other = copies[0] if mapped == copies[1] else copies[1]
        # The losing copy is the same version, not retained history.
        assert ssd.block_manager.reclaimable[other]
        assert ssd.read(5)[0] == payload
        versions, _ = ssd.version_chain(5)
        assert [v.timestamp_us for v in versions] == [ts]
        assert not DeviceAuditor(ssd).audit().violations

    def test_rebuild_is_deterministic_about_the_winner(self):
        first = []
        for _ in range(2):
            ssd, _payload, _ts, _copies = self._ssd_with_duplicate()
            simulate_power_loss(ssd)
            rebuild_from_flash(ssd)
            first.append(ssd.mapping.lookup(5))
        assert first[0] == first[1]


class TestScrubWithCheckpoints:
    """Pinned crash points of the scrub preset with checkpoints on: the
    combined sweep (``repro torture --scrub --checkpoint-every 2``)."""

    CONFIG = scrub_preset(checkpoint_interval_blocks=2)

    def test_recovery_keeps_no_delta_whose_reference_it_hides(self):
        # Recovery once kept LPA 29's compressed delta against a data
        # version it then PRT-marked (no newer than the kept chain):
        # the reference vanished from the walk and fsck could not decode
        # the delta.
        outcome = run_crash_point(self.CONFIG, cut_at=445)
        assert outcome.ok, outcome.problems

    def test_a_page_queued_before_a_checkpoint_reuses_its_block(self):
        # After recovery, a page queued at risk whose block was erased
        # and reopened as a checkpoint block was refreshed as LPA -2.
        outcome = run_crash_point(self.CONFIG, cut_at=593)
        assert outcome.ok, outcome.problems

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: recovered history cannot expire for a "
        "floor, so the 24-block device runs dry on its first writes",
    )
    def test_the_device_serves_writes_after_a_cut_late_in_the_sweep(self):
        # The first of the sweep's 21 failing cuts (578-620): a
        # post-recovery write raises RetentionViolationError.
        outcome = run_crash_point(self.CONFIG, cut_at=578)
        assert outcome.ok, outcome.problems
