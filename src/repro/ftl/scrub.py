"""Background patrol scrubbing and data refresh (docs/RELIABILITY.md).

Retention leakage and read disturb push a page's raw bit errors toward
the ECC budget long before it actually becomes unreadable.  Real
controllers exploit that window: a background *patrol* reads through
sealed blocks on a rotating schedule, watches the corrected-bit counts,
and *refreshes* (rewrites) any page that has drifted past a risk
watermark — resetting its retention clock — before the data is lost.

The :class:`PatrolScrubber` runs from the same idle-window hook as
background GC and delta compression, after both, and never overruns the
window: every step is admitted against a conservative time bound, so the
request that ends the window never waits on scrub work.

Refresh dispatch:

* a **valid** page is migrated exactly like a GC migration — through
  :meth:`~repro.ftl.ssd.BaseSSD.gc_copier`, OOB (timestamp,
  back-pointer) carried over unchanged;
* an **invalid** page goes through the device's one stale-page rule,
  :meth:`~repro.ftl.ssd.BaseSSD._settle_stale_page` — the same call GC
  makes before an erase.  The base SSD retains nothing (the page is
  *skipped*); TimeSSD compresses a retained version into its delta
  chain, which preserves the version timestamp and chain linkage, and
  marks an expired one reclaimable (*skipped*); FlashGuard copies a
  retained page to a fresh one.  A page the rule could not rescue
  through the full read-retry ladder is given up by the device and
  counted as *skipped*.

The scrubber is also the device's path out of read-only degraded mode:
each run finishes by retiring grown-bad blocks still holding data and
then asking the SSD to heal (:meth:`~repro.ftl.ssd.BaseSSD._maybe_heal`
applies the dwell/hysteresis policy).

Determinism: patrol order is a pure function of firmware state (sealed
blocks sorted oldest-programmed-first, rotating cursor), the at-risk
queue is FIFO, and the only randomness anywhere below is the
:class:`~repro.flash.reliability.ReliabilityEngine`'s own seeded media
stream — scrub never touches the foreground RNG (pinned by
``tests/ftl/test_scrub.py``).
"""

from collections import deque

from repro.common.errors import ProgramFailureError, UncorrectableReadError
from repro.ftl.block_manager import BlockKind

__all__ = ["PatrolScrubber"]


class PatrolScrubber:
    """Idle-time patrol reader + at-risk page refresher for one SSD."""

    def __init__(self, ssd):
        self._ssd = ssd
        #: FIFO of pages a foreground/ladder read flagged as at-risk.  A
        #: page is queued while its ``BlockManager.at_risk`` bit is set;
        #: an entry whose bit is clear (refreshed already, or its block
        #: erased since) is dropped when it reaches the front.
        self._at_risk = deque()
        #: Rotating position in the oldest-first patrol order, so
        #: successive windows continue the sweep instead of re-reading
        #: the same oldest block forever.
        self._patrol_cursor = 0
        metrics = ssd.obs.metrics
        self._m_runs = metrics.counter("scrub.runs")
        self._m_patrol_reads = metrics.counter("scrub.patrol_reads")
        self._m_refreshed_valid = metrics.counter("scrub.refreshed_valid")
        self._m_refreshed_retained = metrics.counter("scrub.refreshed_retained")
        self._m_skipped_expired = metrics.counter("scrub.skipped_expired")
        self._m_at_risk_queued = metrics.counter("scrub.at_risk_queued")
        self._m_uncorrectable = metrics.counter("scrub.uncorrectable")
        self._m_blocks_retired = metrics.counter("scrub.blocks_retired")

    # --- Foreground feedback -------------------------------------------------

    @property
    def _risk_bits(self):
        """Corrected-bit watermark: at/above it a page is at-risk."""
        engine = self._ssd.device.reliability
        if engine is None:
            return None
        budget = engine.model.ecc_correctable_bits
        return max(1, int(budget * self._ssd.config.scrub_risk_fraction))

    def observe_read(self, ppa, corrected_bits, retry_step=0):
        """Feedback from the read-retry ladder: queue at-risk pages.

        A page is at-risk when ECC corrected at least the watermark's
        worth of bits, or when the normal (step-0) sense failed and a
        retry was needed — either way the next read may be the one that
        exceeds the budget.
        """
        risk = self._risk_bits
        if risk is None:
            return
        if corrected_bits < risk and retry_step == 0:
            return
        at_risk = self._ssd.block_manager.at_risk
        if at_risk[ppa]:
            return
        at_risk[ppa] = 1
        self._at_risk.append(ppa)
        self._m_at_risk_queued.inc()

    def at_risk_backlog(self):
        return self._ssd.block_manager.at_risk.count(1)

    # --- The idle-window entry point -----------------------------------------

    def run_window(self, start_us, deadline_us):
        """One scrub pass inside ``[start_us, deadline_us)``.

        Order: drain the at-risk queue (pages known to be near the
        budget), then patrol sealed data blocks oldest-programmed-first,
        then retire grown-bad blocks, then attempt a degraded-mode heal.
        Returns the time cursor where work stopped.
        """
        ssd = self._ssd
        t = start_us
        budget_pages = ssd.config.scrub_pages_per_run
        refresh_bound = self._step_bound()
        started = False
        # -- 1. at-risk queue (cheapest wins first: already localized) --
        queue, at_risk = self._at_risk, ssd.block_manager.at_risk
        while queue and budget_pages > 0:
            ppa = queue[0]
            if not at_risk[ppa]:
                queue.popleft()  # no longer at risk: costs no budget
                continue
            if t + self._step_bound(ppa) > deadline_us:
                break
            if not started:
                started = True
                self._m_runs.inc()
            queue.popleft()
            at_risk[ppa] = 0
            t = self._scrub_page(ppa, t, force_refresh=True)
            budget_pages -= 1
        # -- 2. patrol sweep, oldest-programmed-first -------------------
        order = self._patrol_order()
        for pba in self._rotate(order):
            if budget_pages <= 0 or t + refresh_bound > deadline_us:
                break
            for ppa in self._patrol_candidates(pba):
                if budget_pages <= 0 or t + self._step_bound(ppa) > deadline_us:
                    break
                if ssd.block_manager.reclaimable[ppa]:
                    # An earlier refresh in this very walk compressed the
                    # page's version into the delta chain: nothing left
                    # for a patrol read to protect.
                    continue
                if not started:
                    started = True
                    self._m_runs.inc()
                self._m_patrol_reads.inc()
                t = self._scrub_page(ppa, t)
                budget_pages -= 1
            else:
                # Block fully patrolled: advance the rotating cursor.
                self._patrol_cursor += 1
        # -- 3. retire grown-bad blocks still holding data --------------
        t = self._retire_failed_blocks(t, deadline_us)
        # -- 4. degraded-mode heal (decision only; costs no media ops) --
        ssd._maybe_heal(t)
        return t

    def _step_bound(self, ppa=None):
        """What one page's step may cost, for window admission (``ppa``
        None: any page's, at the least): ``scrub_step_bound_us`` over the
        device's ``settle_cost_bound``."""
        ssd = self._ssd
        settle_us = 0 if ppa is None else ssd.settle_cost_bound(ppa)
        return ssd.device.timing.scrub_step_bound_us(
            ssd.config.read_retry_limit, settle_us
        )

    def _patrol_order(self):
        """Sealed data blocks, oldest-programmed-first (ties by PBA)."""
        ssd = self._ssd
        last_program_us = ssd.device.core.last_program_us
        candidates = [
            pba for pba in ssd.block_manager.sealed_blocks(BlockKind.DATA)
        ]
        candidates.sort(key=lambda pba: (last_program_us[pba], pba))
        return candidates

    def _rotate(self, order):
        if not order:
            return order
        start = self._patrol_cursor % len(order)
        return order[start:] + order[:start]

    def _patrol_candidates(self, pba):
        """PPAs in ``pba`` worth a patrol read, via one columnar OOB sweep.

        Skips pages a patrol read could not help: erased or torn/burned
        (batch sequence-tag check).  The
        :meth:`~repro.flash.device.FlashDevice.scan_block_oob` sweep is
        safe to snapshot because a sealed block's programmed/intact columns
        are immutable during the walk.  Validity is *not* snapshotted — a
        refresh earlier in the same walk can compress a later candidate
        into the delta chain, so the caller re-checks it per page.
        """
        ssd = self._ssd
        scan = ssd.device.scan_block_oob(pba)
        first = ssd.device.geometry.first_page_of_block(pba)
        return [
            first + offset
            for offset in range(scan.write_pointer)
            if scan.intact[offset]
        ]

    # --- Per-page scrub ------------------------------------------------------

    def _scrub_page(self, ppa, now_us, force_refresh=False):
        """Ladder-read one page; refresh it when at/over the watermark.

        ``force_refresh`` skips the watermark comparison — used for
        queued at-risk pages, whose foreground read already crossed it.
        """
        ssd = self._ssd
        if not ssd.device.core.intact_at(ppa):
            return now_us  # erased, torn or burned: nothing to protect
        try:
            t, corrected_bits = ssd.read_page_with_retry(ppa, now_us)
        except UncorrectableReadError:
            # Lost despite the full ladder: nothing left to refresh.
            # The host sees the same error if it asks; scrub only
            # accounts it (and the patrol moves on).
            self._m_uncorrectable.inc()
            return now_us
        at_risk = force_refresh or corrected_bits >= (self._risk_bits or 1)
        if not at_risk:
            return t
        if ssd.block_manager.valid[ppa]:
            try:
                t = self._refresh_valid(ppa, t)
                self._m_refreshed_valid.inc()
                # Its own ladder read may have re-queued it a moment ago.
                ssd.block_manager.at_risk[ppa] = 0
                self._trace_refresh(ppa, t, kind="valid")
            except ProgramFailureError:
                # Media refused every copy attempt; the source page is
                # still intact and mapped, so nothing is lost — the next
                # pass retries after the failed block is condemned.
                pass
            return t
        # ftl.ssd imports this module, so its outcome type is fetched here.
        from repro.ftl.ssd import ReclaimOutcome

        # Media work past the patrol read means the stale-page rule moved
        # the page to fresh flash; none means nothing was worth rescuing,
        # or the device gave the version up and accounted the loss.
        settled = ssd._settle_stale_page(ppa, t, ReclaimOutcome(None))
        ssd.block_manager.at_risk[ppa] = 0
        if settled > t:
            self._m_refreshed_retained.inc()
            self._trace_refresh(ppa, settled, kind="retained")
        else:
            self._m_skipped_expired.inc()
        return settled

    def _refresh_valid(self, ppa, now_us):
        """Migrate one valid page, read by the patrol at ``now_us``, to a
        fresh location (same OOB)."""
        ssd = self._ssd
        t = ssd.gc_copier()(ppa, now_us, sensed=True)[1]
        # The stale copy is a byte-identical duplicate of the migrated
        # head — the same version, not an older one.  PRT-mark it so
        # patrol and delta compression never mistake it for retained
        # history (a delta record of it would be self-referential:
        # version_ts == ref_ts).
        ssd.block_manager.mark_reclaimable(ppa)
        return t

    # --- Pool repair ---------------------------------------------------------

    def _retire_failed_blocks(self, now_us, deadline_us):
        """Relocate + retire grown-bad data blocks (degraded-mode repair).

        A block that grew a bad page mid-write was condemned but still
        holds valid data; until it is emptied and released it counts
        against the pool.  Relocation ends with ``release_block``, which
        sees the ``failed`` column and retires it for good.
        """
        ssd = self._ssd
        block_bound = ssd.gc_round_cost_bound()
        t = now_us
        for pba in self._failed_data_blocks():
            if t + block_bound > deadline_us:
                break
            before = (ssd.program_failures, ssd.erase_failures)
            ssd.relocate_block(pba, t)
            if (
                ssd.degraded_reason is not None
                and ssd._degraded_failure_mark == before
                and ssd.program_failures == before[0]
            ):
                # Retiring known-bad media raises the erase-failure
                # counter, but it is the repair, not fresh instability:
                # fold it into the heal mark so it does not restart the
                # dwell.  Any *program* failure during the relocation is
                # a new bad block and keeps gating the heal.
                ssd._degraded_failure_mark = (
                    before[0],
                    ssd.erase_failures,
                )
            t += block_bound
            self._m_blocks_retired.inc()
            tr = ssd.obs.trace
            if tr.enabled:
                tr.emit("scrub", "retire", t, pba=pba)
        return t

    def _failed_data_blocks(self):
        ssd = self._ssd
        failed = ssd.device.core.failed
        return [
            pba
            for pba in ssd.block_manager.sealed_blocks(BlockKind.DATA)
            if failed[pba]
        ]

    def _trace_refresh(self, ppa, now_us, kind):
        tr = self._ssd.obs.trace
        if tr.enabled:
            tr.emit("scrub", "refresh", now_us, ppa=ppa, kind=kind)
