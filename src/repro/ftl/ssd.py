"""The baseline SSD: write path, read path, TRIM, greedy GC.

:class:`BaseSSD` implements everything a regular page-mapped SSD does and
exposes the hook points TimeSSD overrides (what happens when a page is
invalidated, and how garbage collection treats invalid pages).
:class:`RegularSSD` is the paper's comparison baseline — invalid pages are
reclaimed immediately.
"""

from dataclasses import dataclass, field

from repro.common.atomic import atomic_section
from repro.common.clock import SimClock
from repro.common.idle import IdlePredictor
from repro.common.errors import (
    AddressError,
    DegradedModeError,
    DeviceFullError,
    EraseFailureError,
    InvalidPageError,
    ProgramFailureError,
    UncorrectableReadError,
)
from repro.common.units import SECOND_US
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.flash.timing import FlashTiming
from repro.ftl.block_manager import BlockKind, BlockManager, StreamId
from repro.ftl.checkpoint import CheckpointWriter
from repro.ftl.mapping import AddressMappingTable
from repro.ftl.scrub import PatrolScrubber
from repro.ftl.wear_leveling import WearLeveler
from repro.obs import LatencyHistogram, Scope

_FOLD_AT = LatencyHistogram.FOLD_AT


@dataclass
class SSDConfig:
    """Configuration shared by the regular SSD and TimeSSD.

    ``op_ratio`` is the over-provisioning fraction (the paper's board has
    1 TB plus 15% OP).  ``gc_low_watermark`` (blocks) triggers GC when the
    free pool falls to it.  It is derived from geometry, as a plain
    attribute rather than a field, so ``dataclasses.replace`` derives it
    again for the new geometry.
    """

    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming)
    op_ratio: float = 0.15
    #: Run GC opportunistically during predicted-idle windows.
    background_gc: bool = True
    #: Rated program/erase cycles per block (None = unlimited).  When a
    #: block exhausts its budget it is retired, shrinking the device.
    block_endurance_cycles: int = None
    #: GC victim selection: "greedy" (most invalid pages) or
    #: "cost_benefit" (LFS-style age-weighted).
    gc_policy: str = "greedy"
    #: Optional :class:`~repro.flash.reliability.FlashReliability` model
    #: (None = error-free flash).
    reliability: object = None
    mapping_cache_entries: int = None
    #: Optional fault-injection hooks (see :mod:`repro.faults`); installed
    #: into the flash device.  None keeps the happy path untouched.
    faults: object = None
    #: Read-retry ladder depth: extra sense attempts (shifted reference
    #: voltages, lower effective BER, longer sense) before an
    #: uncorrectable read escapes to the host.
    read_retry_limit: int = 4
    #: Background patrol scrubbing: during idle windows, patrol-read
    #: sealed blocks oldest-first and refresh pages whose corrected-bit
    #: counts approach the ECC budget (see docs/RELIABILITY.md).
    patrol_scrub: bool = False
    #: Fraction of the ECC budget at which a page counts as at-risk —
    #: the scrub refresh watermark.
    scrub_risk_fraction: float = 0.5
    #: Upper bound on pages the scrubber touches per idle window (the
    #: window's time budget also applies, whichever is tighter).
    scrub_pages_per_run: int = 64
    #: Checkpointed recovery: every this-many blocks' worth of page
    #: programs, persist per-block recovery summaries to dedicated
    #: translation blocks so ``rebuild_from_flash`` scans only blocks
    #: sealed since (see :mod:`repro.ftl.checkpoint`).  ``None`` (the
    #: default) disables checkpointing — recovery falls back to the
    #: full OOB sweep and no housekeeping writes are added.
    checkpoint_interval_blocks: int = None
    #: Record structured events in the device's trace ring (see
    #: :mod:`repro.obs`).  Off by default: metrics are always on, the
    #: event ring costs one branch per candidate event when disabled.
    tracing: bool = False

    def __post_init__(self):
        if not 0 < self.op_ratio < 1:
            raise ValueError("op_ratio must be in (0, 1)")
        # Striped streams open one append block per channel, so the
        # pool must comfortably cover that plus GC's own appetite.
        self.gc_low_watermark = max(
            4,
            self.geometry.channels + 2,
            self.geometry.total_blocks // 100,
        )

    @property
    def logical_pages(self):
        """User-visible capacity in pages (raw capacity minus OP)."""
        return int(self.geometry.total_pages / (1.0 + self.op_ratio))


@dataclass
class ReclaimOutcome:
    """What one block reclamation did (for tests and ablation benches)."""

    victim_pba: int
    migrated_valid: int = 0
    discarded_reclaimable: int = 0
    discarded_expired: int = 0
    #: Torn/burned pages (mismatched OOB seq tag): no committed version.
    discarded_garbage: int = 0
    compressed: int = 0
    complete_us: int = 0


class BaseSSD:
    """Common machinery of a page-mapped SSD."""

    #: Extra program attempts (remap to a fresh page) before a media
    #: program failure escapes to the host.
    PROGRAM_RETRY_LIMIT = 3
    #: Sim-time the device must dwell in degraded mode with no new
    #: media failures before the scrubber may heal it back to writable
    #: (the anti-flap hysteresis).
    HEAL_DWELL_US = 2 * SECOND_US
    #: Bytes every host page must carry, or None when host pages are
    #: opaque tokens (a REAL-content TimeSSD sets its page size).
    host_page_bytes = None

    def __init__(self, config=None, clock=None):
        self.config = config or SSDConfig()
        self.clock = clock or SimClock()
        #: Per-device observability scope — metrics registry plus trace
        #: ring, shared with the flash device and the NVMe controller.
        self.obs = Scope(tracing=self.config.tracing)
        self.device = FlashDevice(
            self.config.geometry,
            self.config.timing,
            self.config.reliability,
            fault_hooks=self.config.faults,
            obs=self.obs,
        )
        self.block_manager = BlockManager(
            self.device, self.config.block_endurance_cycles
        )
        self.mapping = AddressMappingTable(
            self.config.logical_pages, self.config.mapping_cache_entries
        )
        self.wear_leveler = WearLeveler(self)
        metrics = self.obs.metrics
        # Host response-time histograms double as the legacy
        # write_latency/read_latency attributes (same record/mean_us/
        # percentile API the old reservoirs exposed).
        self.write_latency = metrics.histogram("ftl.write_us")
        self.read_latency = metrics.histogram("ftl.read_us")
        self._m_host_writes = metrics.counter("ftl.host_writes")
        self._m_host_reads = metrics.counter("ftl.host_reads")
        self._m_gc_runs = metrics.counter("gc.runs")
        self._m_background_gc_runs = metrics.counter("gc.background_runs")
        self._m_gc_migrated = metrics.counter("gc.pages_migrated")
        self._m_retry_reads = metrics.counter("reliability.retry_reads")
        self._m_retry_exhausted = metrics.counter("reliability.retry_exhausted")
        self._m_lost_pages = metrics.counter("reliability.lost_pages")
        self._h_retry_depth = metrics.histogram("reliability.retry_depth")
        self._h_corrected_bits = metrics.histogram("reliability.corrected_bits")
        self._m_degraded_entered = metrics.counter("ftl.degraded.entered")
        self._m_degraded_healed = metrics.counter("ftl.degraded.healed")
        #: Media program/erase failures the firmware absorbed.
        self.program_failures = 0
        self.erase_failures = 0
        #: LBAs whose only copy proved unreadable during a migration —
        #: ``{lpa: ppa of the lost copy}``.  Host reads keep reporting a
        #: media error (silent zeroes would hide the loss) until the LBA
        #: is rewritten or trimmed, as real drives mark unrecoverable
        #: LBAs.
        self.lost_lpas = {}
        #: Non-None while in read-only degraded mode (the reason string).
        self.degraded_reason = None
        self._degraded_since_us = 0
        self._degraded_failure_mark = (0, 0)
        #: Background patrol scrubber + refresh engine (None unless
        #: ``patrol_scrub`` is enabled).
        self.scrubber = PatrolScrubber(self) if self.config.patrol_scrub else None
        #: Periodic recovery-checkpoint writer (None unless
        #: ``checkpoint_interval_blocks`` is set).
        self.checkpointer = (
            CheckpointWriter(self)
            if self.config.checkpoint_interval_blocks
            else None
        )
        self._last_io_end_us = self.clock.now_us
        self._idle = IdlePredictor()
        self._translation_reads_seen = 0
        self._translation_writes_seen = 0

    # --- Host interface -------------------------------------------------------

    @property
    def logical_pages(self):
        return self.config.logical_pages

    def write(self, lpa, data=None):
        """Write one logical page; returns the response time in us."""
        arrival = self.clock.now_us
        complete = self.serve_write_at(lpa, data, arrival)
        self.clock.advance_to(complete)
        return complete - arrival

    def read(self, lpa):
        """Read one logical page; returns ``(data, response_us)``.

        Reading a never-written page returns ``(None, 0)`` — the device
        answers from the mapping table without touching flash, as real
        FTLs do for unmapped LBAs.
        """
        arrival = self.clock.now_us
        data, complete = self.serve_read_at(lpa, arrival)
        self.clock.advance_to(complete)
        return data, complete - arrival

    def trim(self, lpa):
        """Delete a logical page (e.g. file deletion punched through)."""
        self.serve_trim_at(lpa, self.clock.now_us)

    def write_range(self, start_lpa, npages, pages=None):
        """Write ``npages`` consecutive pages as one request; returns its
        response time in us.

        The clock moves once, to the request's completion.  A request
        that raises part-way moves it to the idle mark its admitted
        pages raised ``_last_io_end_us`` to — its last page's
        completion — and leaves it where it was when they raised
        nothing (no page completed, or a failed command before it left
        the mark beyond their completions).
        """
        self.check_lpa_range(start_lpa, npages)
        arrival, mark = self.clock.now_us, self._last_io_end_us
        complete = None
        try:
            complete = self.serve_writes_at(
                range(start_lpa, start_lpa + npages), pages, arrival
            )
        finally:
            self._end_range(complete, mark)
        return complete - arrival

    def read_range(self, start_lpa, npages):
        """Read consecutive pages as one request; returns
        ``(list_of_data, response_us)``.  The clock moves as for
        :meth:`write_range`."""
        arrival, mark = self.clock.now_us, self._last_io_end_us
        complete = None
        try:
            data, complete = self.serve_reads_at(start_lpa, npages, arrival)
        finally:
            self._end_range(complete, mark)
        return data, complete - arrival

    def _end_range(self, complete, mark):
        """Move the clock at the end of a range request: to ``complete``,
        or, when the request raised, to the idle mark if its pages moved
        it from ``mark``."""
        if complete is None and self._last_io_end_us != mark:
            complete = self._last_io_end_us
        if complete is not None:
            self.clock.advance_to(complete)

    # --- Admitted host pages ------------------------------------------------
    # Every route into the FTL (the device-clock API above, the NVMe
    # executor's slot cursors, TimeKits' restore threads) comes through
    # these three, so admission — writable gate, checkpoint and idle-gap
    # detection, ``ftl.host_*`` and latency accounting (the samples
    # appended in place), the idle mark, the Equation-1 hook on writes —
    # runs exactly once per host page whatever its route.  The idle mark
    # only rises: idle means no admitted page still in service, and
    # queued commands complete out of order, so a TRIM admitted while a
    # write is in flight must not pull it back inside that write.  A
    # multi-page request reaches them through the three loops below,
    # the one place its pages are put in order.

    def serve_writes_at(self, lpas, pages, arrival_us, threads=1):
        """Admit one request's write pages, arriving at ``arrival_us``;
        returns the latest completion.

        Page ``i`` (data ``pages[i]``; token pages when ``pages`` is
        None) goes to cursor ``i % threads``, which admits it at the
        completion of that cursor's previous page.  Only
        ``min(threads, len(lpas))`` cursors exist: a further one would
        get no page.  Host requests have one cursor; TimeKits' restore
        threads pass more.
        """
        cursors = [arrival_us] * min(threads, len(lpas))
        for i, lpa in enumerate(lpas):
            k = i % threads
            data = pages[i] if pages is not None else None
            cursors[k] = self.serve_write_at(lpa, data, cursors[k])
        return max(cursors, default=arrival_us)

    def serve_reads_at(self, start_lpa, npages, arrival_us):
        """Admit one request's ``npages`` reads from ``start_lpa`` in
        order, each at the previous page's completion; returns
        ``(list_of_data, complete_us)``.  A range crossing the device
        end is refused before its first page (a one-page request by
        :meth:`serve_read_at`'s own check: one check per request)."""
        if npages == 1:
            data, t = self.serve_read_at(start_lpa, arrival_us)
            return [data], t
        self.check_lpa_range(start_lpa, npages)
        out = []
        t = arrival_us
        for lpa in range(start_lpa, start_lpa + npages):
            data, t = self.serve_read_at(lpa, t)
            out.append(data)
        return out, t

    def serve_trims_at(self, start_lpa, npages, arrival_us):
        """Admit one request's ``npages`` TRIMs from ``start_lpa``, all at
        ``arrival_us`` (each completes there, see :meth:`serve_trim_at`).
        A range crossing the device end is refused before its first
        page."""
        self.check_lpa_range(start_lpa, npages)
        for lpa in range(start_lpa, start_lpa + npages):
            self.serve_trim_at(lpa, arrival_us)

    def serve_write_at(self, lpa, data, arrival_us):
        """Admit and program one host page arriving at ``arrival_us``;
        returns its completion time."""
        self.check_lpa_range(lpa)
        self.ensure_writable()
        if self.host_page_bytes is not None:
            self.check_host_page(lpa, data)
        self._before_host_request(arrival_us)
        try:
            self._ensure_free_space(arrival_us)
            complete = self._program_user_page(lpa, data, arrival_us)
        except (DeviceFullError, ProgramFailureError) as exc:
            # The device can no longer honor writes: go read-only rather
            # than fail differently on every subsequent request.
            self._enter_degraded(exc)
            raise
        self.lost_lpas.pop(lpa, None)  # a rewrite clears the media error
        self._m_host_writes.value += 1
        samples = self.write_latency.samples  # ftl.write_us, in place
        samples.append(complete - arrival_us)
        if len(samples) >= _FOLD_AT:
            self.write_latency.fold()
        if complete > self._last_io_end_us:
            self._last_io_end_us = complete
        self._after_host_request(complete)
        return complete

    def check_lpa_range(self, start, npages=1):
        """Raise :class:`AddressError` unless LPAs ``[start, start +
        npages)`` all lie on the device — checked before admission, so a
        refused request changes nothing."""
        if start < 0 or start + npages > self.mapping.logical_pages:
            raise AddressError(
                "LPA range [%d, %d) out of bounds [0, %d)"
                % (start, start + npages, self.mapping.logical_pages)
            )

    def check_host_page(self, lpa, data):
        """Raise :class:`InvalidPageError` unless ``data`` is exactly
        :attr:`host_page_bytes` bytes — checked before admission, or a
        wrong-sized page would only fail deep inside a later GC pass."""
        if (
            not isinstance(data, (bytes, bytearray))
            or len(data) != self.host_page_bytes
        ):
            raise InvalidPageError(
                "LPA %d: a host page must be exactly %d bytes"
                % (lpa, self.host_page_bytes)
            )

    def serve_trim_at(self, lpa, arrival_us):
        """Admit one TRIM arriving at ``arrival_us``; returns True when a
        mapping was dropped.  It completes at its arrival: a TRIM waits
        for no media operation (TimeSSD's tombstone record is buffered,
        and a delta page it makes full is programmed on its channel
        without the TRIM waiting for it)."""
        self.check_lpa_range(lpa)
        self.ensure_writable()
        self._before_host_request(arrival_us)
        old = self.mapping.invalidate(lpa)
        self.lost_lpas.pop(lpa, None)  # deletion clears the media error
        if old != NULL_PPA:
            self._on_invalidate(lpa, old, arrival_us)
        if arrival_us > self._last_io_end_us:
            self._last_io_end_us = arrival_us
        return old != NULL_PPA

    def serve_read_at(self, lpa, arrival_us):
        """Admit and read one host page arriving at ``arrival_us``.

        Returns ``(data, complete_us)``.  An unmapped LPA answers from
        the mapping table with no media time; so does a lost one, whose
        request completes — with the media error — at zero latency.
        """
        self.check_lpa_range(lpa)
        self._before_host_request(arrival_us)
        self._m_host_reads.value += 1
        mapping = self.mapping
        ppa = mapping.lookup(lpa)
        start = arrival_us
        if mapping.demand_paged:
            start = self._translation_delay(arrival_us)
        if ppa == NULL_PPA:
            data, complete = None, arrival_us
        else:
            device = self.device
            if self._ladder_on():
                complete = self._climb_ladder(device.read_page, ppa, start)[0]
            else:
                complete = device.read_page(ppa, start)[0]
            data = device.core.data[ppa]
        samples = self.read_latency.samples  # ftl.read_us, in place
        samples.append(complete - arrival_us)
        if len(samples) >= _FOLD_AT:
            self.read_latency.fold()
        if complete > self._last_io_end_us:
            self._last_io_end_us = complete
        if ppa == NULL_PPA and lpa in self.lost_lpas:
            raise UncorrectableReadError(self.lost_lpas[lpa], lost=True)
        return data, complete

    # --- Stats ------------------------------------------------------------

    @property
    def host_pages_written(self):
        """Host pages programmed (the ``ftl.host_writes`` counter)."""
        return self._m_host_writes.value

    @property
    def host_pages_read(self):
        """Host page reads admitted (the ``ftl.host_reads`` counter)."""
        return self._m_host_reads.value

    @property
    def gc_runs(self):
        """Foreground GC rounds (the ``gc.runs`` counter)."""
        return self._m_gc_runs.value

    @property
    def background_gc_runs(self):
        """Idle-window GC rounds (the ``gc.background_runs`` counter)."""
        return self._m_background_gc_runs.value

    @property
    def write_amplification(self):
        """Flash page programs divided by host page writes."""
        if self.host_pages_written == 0:
            return 0.0
        return self.device.page_programs.value / self.host_pages_written

    def _refresh_gauges(self):
        """Update point-in-time gauges just before a snapshot."""
        metrics = self.obs.metrics
        metrics.gauge("ftl.wa.flash_programs").set(self.device.page_programs.value)
        metrics.gauge("ftl.wa.host_writes").set(self.host_pages_written)
        metrics.gauge("ftl.write_amplification").set(
            round(self.write_amplification, 6)
        )
        metrics.gauge("ftl.free_blocks").set(self.block_manager.free_block_count)
        metrics.gauge("ftl.retired_blocks").set(self.block_manager.retired_blocks)
        metrics.gauge("ftl.degraded").set(0 if self.degraded_reason is None else 1)
        metrics.gauge("sim.now_us").set(self.clock.now_us)
        timelines = self.device.timelines
        metrics.gauge("flash.busy_us_total").set(timelines.total_busy_us())
        for channel, busy in enumerate(timelines.busy_times()):
            metrics.gauge("flash.channel_busy_us.%d" % channel).set(busy)
        depths = timelines.max_depths()
        for channel, depth in enumerate(depths):
            metrics.gauge("flash.channel_qdepth_max.%d" % channel).set(depth)
        chips = self.device.chip_timelines
        metrics.gauge("flash.chip_busy_us_total").set(chips.total_busy_us())
        for chip, busy in enumerate(chips.busy_times()):
            metrics.gauge("flash.chip_busy_us.%d" % chip).set(busy)
        chip_depths = chips.max_depths()
        for chip, depth in enumerate(chip_depths):
            metrics.gauge("flash.chip_qdepth_max.%d" % chip).set(depth)
        # The headline queue-depth gauge covers both lane kinds: with
        # the default zero-cost bus the chip queues are where commands
        # actually stack up.
        metrics.gauge("flash.qdepth_max").set(max(depths + chip_depths))

    def metrics_snapshot(self):
        """JSON-stable snapshot of every metric on this device."""
        self._refresh_gauges()
        return self.obs.metrics.snapshot()

    def endurance_report(self):
        """Device health: wear consumed, spread, retired blocks."""
        counts = self.device.block_erase_counts()
        rated = self.config.block_endurance_cycles
        report = {
            "total_erases": sum(counts),
            "max_pe_cycles": max(counts),
            "min_pe_cycles": min(counts),
            "retired_blocks": self.block_manager.retired_blocks,
            "rated_pe_cycles": rated,
        }
        if rated:
            report["life_used"] = sum(counts) / (len(counts) * rated)
        return report

    def free_page_estimate(self):
        """Free pages = free blocks plus the room left in active blocks."""
        bm = self.block_manager
        pages_per_block = self.device.geometry.pages_per_block
        write_pointer = self.device.core.write_pointer
        pages = bm.free_block_count * pages_per_block
        for pba in bm.active_blocks():
            pages += pages_per_block - write_pointer[pba]
        return pages

    # --- Degraded mode (read-only fail-safe) ---------------------------------

    def ensure_writable(self):
        """Raise :class:`DegradedModeError` if mutations must be refused.

        Degraded mode is sticky once entered; it is also (re-)entered
        here when bad-block retirement has shrunk the pool below what
        logical capacity plus GC headroom require — a condition reboots
        cannot clear, because the ``failed`` column is media truth.
        """
        if self.degraded_reason is None and self.block_manager.retired_blocks:
            reason = self._pool_health_reason()
            if reason is not None:
                self._enter_degraded(reason)
        if self.degraded_reason is not None:
            raise DegradedModeError(self.degraded_reason)

    def _pool_health_reason(self):
        geo = self.device.geometry
        usable = geo.total_blocks - self.block_manager.retired_blocks
        needed = -(-self.config.logical_pages // geo.pages_per_block)
        needed += self.config.gc_low_watermark
        if usable < needed:
            return (
                "%d retired blocks leave %d usable, below the %d needed "
                "for logical capacity plus GC headroom"
                % (self.block_manager.retired_blocks, usable, needed)
            )
        return None

    def _enter_degraded(self, reason):
        if self.degraded_reason is None:
            # Fresh entry: start the heal dwell clock and remember the
            # failure counters — heal requires them to hold still.
            self._degraded_since_us = self.clock.now_us
            self._degraded_failure_mark = (
                self.program_failures,
                self.erase_failures,
            )
            self._m_degraded_entered.inc()
            tr = self.obs.trace
            if tr.enabled:
                tr.emit(
                    "fault",
                    "degraded-enter",
                    self.clock.now_us,
                    reason=type(reason).__name__
                    if isinstance(reason, BaseException)
                    else "pool-health",
                )
        self.degraded_reason = str(reason)

    def clear_degraded(self):
        """Leave degraded mode (the condition is re-checked on next write)."""
        self.degraded_reason = None

    @atomic_section(
        "the heal decision reads pool health, the failure counters and "
        "the dwell clock, then flips the degraded flag in one step; a "
        "media failure arriving mid-decision must restart the dwell, "
        "not race the flip",
        # The flag flip is the last firmware mutation; what follows is
        # observability (counter + trace), whose ReproError would leave
        # the healed state fully consistent.
    )
    def _maybe_heal(self, now_us):
        """Exit degraded mode once the media has proven stable.

        Called by the patrol scrubber at the end of each run.  Healing
        requires a full ``HEAL_DWELL_US`` with no new program/erase
        failures, a pool that retirement has not shrunk below logical
        capacity (that condition is permanent — the ``failed`` column
        is media truth), and a free pool above the GC watermark.  New
        failures restart the dwell, so a device under sustained faults
        never flaps between writable and read-only.
        """
        if self.degraded_reason is None:
            return False
        failures = (self.program_failures, self.erase_failures)
        if failures != self._degraded_failure_mark:
            self._degraded_failure_mark = failures
            self._degraded_since_us = now_us
            return False
        if now_us - self._degraded_since_us < self.HEAL_DWELL_US:
            return False
        if self._pool_health_reason() is not None:
            return False
        if self.block_manager.free_block_count <= self.config.gc_low_watermark:
            return False
        self.clear_degraded()
        self._m_degraded_healed.inc()
        tr = self.obs.trace
        if tr.enabled:
            tr.emit("scrub", "degraded-healed", now_us)
        return True

    # --- Write-path internals ----------------------------------------------

    @atomic_section(
        "allocate + map + program + validity must commit as one step: a "
        "competing task between mapping update and program would read a "
        "mapped-but-unwritten page",
        # Retry exhaustion re-points the mapping at the last durable copy
        # (or invalidates a first write) before the ProgramFailureError
        # escapes.
    )
    def _program_user_page(self, lpa, data, now_us):
        """Allocate, program and map one user page; returns completion.

        A media program failure burns the allocated page; firmware remaps
        to a freshly allocated one and retries, up to the configured
        budget (the standard NAND program-retry loop).
        """
        ppa = self.block_manager.allocate_page(StreamId.USER)
        old = self.mapping.update(lpa, ppa)
        now_us = self._translation_delay(now_us)
        oob = OOBMetadata(lpa=lpa, back_pointer=old, timestamp_us=now_us)
        last_failure = None
        for _attempt in range(self.PROGRAM_RETRY_LIMIT + 1):
            try:
                complete = self.device.program_page(ppa, data, oob, now_us)
                break
            except ProgramFailureError as exc:
                last_failure = exc
                self._note_program_failure(exc)
                ppa = self.block_manager.allocate_page(StreamId.USER)
                self.mapping.update(lpa, ppa)
        else:
            # Out of retries: put the mapping back on the last good copy
            # so acknowledged data stays readable, then let it escape.
            if old != NULL_PPA:
                self.mapping.update(lpa, old)
            else:
                self.mapping.invalidate(lpa)
            raise last_failure
        self.block_manager.mark_valid(ppa)
        if old != NULL_PPA:
            self._on_invalidate(lpa, old, now_us)
        return complete

    @atomic_section(
        "the allocate/program/remap-on-failure loop is one media "
        "transaction: suspending between a burned page and its "
        "replacement allocation would let a competing allocator reuse "
        "the failed block",
        # A failed program permanently burns the page and may retire the
        # block (durable media truth); no mapping/index state is touched,
        # so the raise leaves firmware state consistent.
    )
    def program_with_retry(self, allocate, data, oob, now_us):
        """Program with remap-on-failure for housekeeping writes.

        ``allocate`` is a zero-argument callable returning a fresh PPA
        (GC migration, delta flush).  Returns ``(ppa, complete_us)``;
        raises the last :class:`ProgramFailureError` once the retry
        budget is exhausted.
        """
        last_failure = None
        for _attempt in range(self.PROGRAM_RETRY_LIMIT + 1):
            ppa = allocate()
            try:
                return ppa, self.device.program_page(ppa, data, oob, now_us)
            except ProgramFailureError as exc:
                last_failure = exc
                self._note_program_failure(exc)
        raise last_failure

    def read_page_with_retry(self, ppa, now_us):
        """Read one page through the read-retry ladder; returns
        ``(complete_us, corrected_bits)`` as ``device.read_page`` does.

        Step 0 is the normal read; each further step re-senses with
        shifted reference voltages, multiplying the effective BER by the
        model's ``retry_ber_factor`` at the cost of a longer sense.
        :class:`UncorrectableReadError` escapes only once the ladder is
        exhausted.  Corrected-bit counts are recorded and at-risk pages
        (near the ECC budget) are handed to the patrol scrubber for
        refresh.  With reliability disabled this is exactly
        ``device.read_page`` — no extra metrics, no extra branches.
        """
        if not self._ladder_on():
            return self.device.read_page(ppa, now_us)
        return self._climb_ladder(self.device.read_page, ppa, now_us)

    def page_reader(self):
        """:meth:`read_page_with_retry`, bound once for a loop of reads: the
        device's read itself while the ladder is off (the two are then
        the same call), the ladder otherwise."""
        if not self._ladder_on():
            return self.device.read_page
        return self.read_page_with_retry

    def _ladder_on(self):
        """Whether a read climbs the read-retry ladder: the one test."""
        engine = self.device.reliability
        return engine is not None and engine.enabled

    def _climb_ladder(self, read_op, ppa, now_us, **kwargs):
        """``read_op(ppa, now_us, retry_step=step, **kwargs)`` up the
        read-retry ladder; returns its result, whose last item is the
        read's corrected-bit count (``device.read_page``'s pair and
        ``device.copy_page``'s triple alike).

        A copy whose read passed but whose program failed still counts
        its read here before the :class:`ProgramFailureError` escapes.
        """
        step = 0
        limit = self.config.read_retry_limit
        while True:
            try:
                result = read_op(ppa, now_us, retry_step=step, **kwargs)
                break
            except UncorrectableReadError:
                if step >= limit:
                    self._h_retry_depth.record(step)
                    self._m_retry_exhausted.inc()
                    raise
                step += 1
                self._m_retry_reads.inc()
            except ProgramFailureError as exc:
                self._note_ladder_read(ppa, step, exc.corrected_bits)
                raise
        self._note_ladder_read(ppa, step, result[-1])
        return result

    def _note_ladder_read(self, ppa, step, corrected_bits):
        self._h_retry_depth.record(step)
        if corrected_bits:
            self._h_corrected_bits.record(corrected_bits)
        if self.scrubber is not None:
            self.scrubber.observe_read(ppa, corrected_bits, step)

    def _note_program_failure(self, exc):
        """Account a media program failure; condemn the block if grown bad."""
        self.program_failures += 1
        if exc.permanent:
            self.block_manager.condemn_block(
                self.device.geometry.block_of_page(exc.ppa)
            )

    def _ensure_free_space(self, now_us):
        """Foreground GC: reclaim until the pool clears the low watermark."""
        bm = self.block_manager
        stalled_rounds = 0
        guard = 0
        while bm.free_block_count <= self.config.gc_low_watermark:
            pages_before = self.free_page_estimate()
            self._collect_garbage(now_us)
            self._m_gc_runs.inc()
            # Progress is measured in free *pages*: a round that compresses
            # retained data gains pages even when opening fresh GC/delta
            # append blocks momentarily dips the free-block count.
            if self.free_page_estimate() <= pages_before:
                stalled_rounds += 1
                self._on_gc_stall(stalled_rounds, now_us)
            else:
                stalled_rounds = 0
            guard += 1
            if guard > 4 * self.device.geometry.total_blocks:
                raise DeviceFullError("GC cannot make progress")

    def _translation_delay(self, now_us):
        """Charge pending DFTL translation-page I/O (demand cache mode).

        With a finite mapping cache, misses read translation pages and
        dirty evictions write them back — real flash operations a request
        waits on.  The fully-cached default never charges anything.
        """
        mapping = self.mapping
        delta_r = mapping.translation_reads - self._translation_reads_seen
        delta_w = mapping.translation_writes - self._translation_writes_seen
        if not delta_r and not delta_w:
            return now_us
        self._translation_reads_seen = mapping.translation_reads
        self._translation_writes_seen = mapping.translation_writes
        latency = self.device.timing.translation_us(delta_r, delta_w)
        channel, _free = self.device.timelines.earliest_free(now_us)
        return self.device.timelines.schedule(channel, now_us, latency)

    # --- Idle-window machinery (shared by all devices) ------------------------

    #: Background GC tops the pool up to this many times the low
    #: watermark during idle windows, keeping reclamation off the
    #: foreground path as real firmware does.
    BACKGROUND_GC_HEADROOM = 2

    def _before_host_request(self, arrival_us):
        """Detect the idle gap that just ended and spend it on housekeeping."""
        # Checkpoints run *before* the request, never between a host
        # program and its acknowledgement: a power cut inside a
        # checkpoint must not make an unacknowledged write durable
        # (the torture oracle holds us to read-your-acked-writes).
        if self.checkpointer is not None:
            self.checkpointer.maybe_checkpoint(arrival_us)
        gap = arrival_us - self._last_io_end_us
        if gap <= 0:
            return
        if self._idle.would_compress:
            self._use_idle_window(self._last_io_end_us, arrival_us)
        self._idle.observe_gap(gap)

    def _use_idle_window(self, start_us, deadline_us):
        """Housekeeping inside a predicted-idle window.

        Background GC, then background compression (a TimeSSD stage; the
        base hook does nothing), then patrol scrubbing — each a
        ``(start_us, deadline_us) -> end_us`` window runner handing its
        cursor to the next.  Work must stay inside the window — the
        request arriving at ``deadline_us`` never waits on it.
        """
        cursor = self.background_collect(start_us, deadline_us)
        cursor = self.background_compress(cursor, deadline_us)
        if self.scrubber is not None:
            self.scrubber.run_window(cursor, deadline_us)

    def gc_round_cost_bound(self):
        """What idle-window admission and the scheduler's background-gc
        task budget one GC round by (``FlashTiming.gc_round_bound_us``)."""
        return self.device.timing.gc_round_bound_us(self.device.geometry.pages_per_block)

    def background_collect(self, start_us, deadline_us):
        """GC rounds inside ``[start_us, deadline_us)``, each budgeted by
        an upper-bound round cost; runs only while the free pool sits
        below the idle-refill target.

        Returns the time cursor where the window's remaining budget
        starts (``start_us`` when there was nothing to do).
        """
        if not self.config.background_gc:
            return start_us
        round_bound = self.gc_round_cost_bound()
        target = self.BACKGROUND_GC_HEADROOM * self.config.gc_low_watermark
        t = start_us
        while (
            self.block_manager.free_block_count < target
            and t + round_bound <= deadline_us
        ):
            try:
                self._collect_garbage(t)
            except DeviceFullError:
                break
            self._m_background_gc_runs.inc()
            t += round_bound
        return t

    # --- Hooks overridden by TimeSSD ----------------------------------------

    def background_compress(self, start_us, deadline_us):
        """Idle-window stage between GC and scrub (TimeSSD: background
        delta compression); returns the cursor where it stopped."""
        return start_us

    def _on_gc_stall(self, stalled_rounds, now_us):
        """Foreground GC just ran its ``stalled_rounds``-th consecutive
        round that freed no page.  The baseline has nothing to give up;
        devices that retain history shed some of it here."""

    def _forget_block(self, pba):
        """Per-block firmware state beyond the block manager's page marks
        to drop as ``pba`` is erased (TimeSSD: its retained-page census)."""

    def _settle_stale_page(self, ppa, now_us, outcome):
        """What becomes of the stale page at ``ppa`` before its block is
        erased, counted into ``outcome``; returns the cursor after any
        media work.  The baseline retains nothing, so the erase simply
        discards it (TimeSSD: Algorithm 1's retention rule)."""
        return now_us

    def settle_cost_bound(self, ppa):
        """Upper bound on the media time :meth:`_settle_stale_page` spends
        on ``ppa``, for idle-window admission (TimeSSD: a retained page's
        chain compression).  The baseline's rule does no media work."""
        return 0

    def _after_host_request(self, complete_us):
        """Called by :meth:`serve_write_at` only, as each admitted host
        page write completes at ``complete_us`` (TimeSSD: Equation 1's
        write count).  A read or TRIM calls no after-page hook: each
        ``serve_*_at`` raises the idle mark itself."""

    @atomic_section(
        "stale-page bookkeeping (PVT clear; TimeSSD adds the retention "
        "census) must agree with the mapping update that triggered it"
    )
    def _on_invalidate(self, lpa, old_ppa, now_us):
        """An update/TRIM made ``old_ppa`` stale.

        The regular SSD just clears the PVT bit; TimeSSD additionally
        registers the page in the active bloom filter so it is *retained*.
        """
        self.block_manager.invalidate_page(old_ppa)

    def _collect_garbage(self, now_us):
        """Reclaim one block using the configured victim policy."""
        victim = self.block_manager.select_victim(
            self.config.gc_policy, now_us, BlockKind.DATA
        )
        if victim is None:
            raise DeviceFullError("no GC victim: device is full of valid data")
        self.relocate_block(victim, now_us)

    # --- Shared mechanics ----------------------------------------------------

    @atomic_section(
        "Algorithm 1 reclaims a block as one step: migrate/compress/"
        "discard every page, then erase and release — a foreground write "
        "interleaved mid-reclaim could allocate into the half-emptied "
        "victim or read a version whose delta head is being relinked",
        # Each per-page iteration commits a self-consistent unit (a
        # migrated page is remapped before the next page is touched; a
        # compressed chain is linked before its sources are marked
        # reclaimable), so a mid-loop failure loses no version.
    )
    def relocate_block(self, pba, now_us):
        """Reclaim ``pba`` (the paper's Algorithm 1, lines 5-26); returns
        a :class:`ReclaimOutcome`.

        The one per-block loop of GC, wear leveling and scrub's bad-block
        repair, on every device.  One cursor threads the block: a valid
        page is read, its copy programmed once the read completes (OOB
        carried over: same timestamp and back-pointer; :meth:`gc_copier`),
        then the next page; a stale page goes to :meth:`_settle_stale_page`;
        the erase is issued once the last copy is durable.
        """
        core = self.device.core
        outcome = ReclaimOutcome(pba)
        t = now_us
        base = pba * core.pages_per_block
        stop = base + core.write_pointer[pba]
        # One walk from the block's column slices: nothing in the round
        # programs into the victim or flips another of its valid bits.
        state = core.state[base:stop]
        valid = self.block_manager.valid[base:stop]
        migrate = self.gc_copier()
        for offset, is_valid in enumerate(valid):
            if not state[offset]:
                continue
            ppa = base + offset
            if not is_valid:
                t = self._settle_stale_page(ppa, t, outcome)
                continue
            # A valid page is always intact: a torn or burned program
            # fails before its PVT bit is set, and recovery marks only
            # sealed pages valid.
            try:
                t = migrate(ppa, t)[1]
            except UncorrectableReadError:
                self.note_lost_valid_page(ppa)
                continue
            outcome.migrated_valid += 1
        t = self.erase_and_release(pba, t)
        outcome.complete_us = t
        self._m_gc_migrated.inc(outcome.migrated_valid)
        tr = self.obs.trace
        if tr.enabled:
            tr.emit(
                "gc",
                "reclaim",
                t,
                pba=pba,
                migrated=outcome.migrated_valid,
                expired=outcome.discarded_expired,
                compressed=outcome.compressed,
            )
        return outcome

    def note_lost_valid_page(self, ppa):
        """A migration found a valid page unreadable through the full
        retry ladder: the current version is lost.

        The mapping is dropped and the LBA remembered in ``lost_lpas``
        so host reads surface the loss as a media error instead of
        silently answering "never written"; the next rewrite or TRIM of
        the LBA clears it.  The block's reclaim then proceeds — the
        unreadable copy is garbage either way.
        """
        core = self.device.core
        lpa = core.lpa[ppa] if core.state[ppa] else None
        self.block_manager.invalidate_page(ppa)
        if lpa is not None and self.mapping.lookup(lpa) == ppa:
            self.mapping.invalidate(lpa)
            self.lost_lpas[lpa] = ppa
        self._m_lost_pages.inc()

    @atomic_section(
        "a page migration is program + validity flip + remap committed "
        "together, or a competing read could land on a mapping that "
        "moved before its copy was durable",
        # A failed copy (its read given up, or every program attempt
        # failed) leaves firmware state untouched; the source page stays
        # valid and mapped.
    )
    def gc_copier(self, remap=True):
        """The one GC copy step, its handles bound once (per victim, in
        :meth:`relocate_block`): ``copy(ppa, now_us, sensed=False) ->
        (new_ppa, complete_us)`` is one ``device.copy_page`` into the GC
        stream — the read at ``now_us`` (``sensed``: the caller's read
        just ended there) up the retry ladder, the program at its
        completion, OOB carried over, a failed program retried from it.
        With ``remap`` the PVT bits flip on the columns and the mapping
        follows if it still names ``ppa``; without, FlashGuard re-points
        a version record.  A read the ladder gave up on, or the last
        program failure, escapes with nothing copied or remapped.
        """
        core = self.device.core
        copy_page = self.device.copy_page
        lpas = core.lpa
        pages_per_block = core.pages_per_block
        bm = self.block_manager
        allocate = bm.allocator(StreamId.GC)
        valid = bm.valid
        valid_per_block = bm.valid_per_block
        lookup = self.mapping.lookup
        update = self.mapping.update
        ladder_on = self._ladder_on()
        attempts = range(self.PROGRAM_RETRY_LIMIT + 1)

        def copy(ppa, now_us, sensed=False):
            ladder = ladder_on and not sensed
            step = None if sensed else 0
            for _attempt in attempts:
                try:
                    if ladder:
                        new_ppa, complete, _bits = self._climb_ladder(
                            copy_page, ppa, now_us, allocate=allocate
                        )
                    else:
                        new_ppa, complete, _bits = copy_page(
                            ppa, now_us, allocate, step
                        )
                    break
                except ProgramFailureError as exc:
                    last_failure = exc
                    self._note_program_failure(exc)
                    now_us, step, ladder = exc.sensed_us, None, False
            else:
                raise last_failure
            if remap:
                valid[new_ppa] = 1
                valid_per_block[new_ppa // pages_per_block] += 1
                if valid[ppa]:
                    valid[ppa] = 0
                    valid_per_block[ppa // pages_per_block] -= 1
                lpa = lpas[ppa]
                if lookup(lpa) == ppa:
                    update(lpa, new_ppa)
            return new_ppa, complete

        return copy

    @atomic_section(
        "erase + per-block forget (TimeSSD: retention census) + release/"
        "retire (page marks) + wear accounting commit together: in "
        "between, the block is erased flash that the PRT still claims "
        "holds compressed versions, and a half-released block would be "
        "visible to a competing allocator",
        # A completed erase is durable media truth; release_block either
        # frees or retires the block, and the wear-leveler accounting is
        # monotonic counters that recovery rebuilds from flash anyway.
    )
    def erase_and_release(self, pba, now_us):
        """Erase ``pba`` and hand it back to the pool; returns the erase's
        completion time (``now_us`` when the block proved grown bad).

        The tail of every reclaim — data, delta and translation blocks
        alike — and the only place firmware erases flash.
        """
        erased = True
        complete = now_us
        try:
            complete = self.device.erase_block(pba, now_us)
        except EraseFailureError:
            # Grown bad block: release_block sees the failed column and
            # retires it instead of returning it to the free pool.
            self.erase_failures += 1
            erased = False
        self._forget_block(pba)
        self.block_manager.release_block(pba)
        if erased:
            # Issue time: a swap reads other blocks, and a program into
            # this one queues behind the erase on its chip lane anyway.
            self.wear_leveler.on_erase(now_us)
        return complete

    # --- Volatile-state lifecycle (power loss) --------------------------------

    def reset_volatile(self):
        """Drop every RAM-resident table, as an abrupt power cut does.

        Flash contents (data, OOB metadata, wear counters, grown bad
        blocks) survive; the mapping, block status/validity tables, wear
        leveler and idle predictor are rebuilt empty.  Callers follow up
        with a recovery scan (``timessd.recovery.rebuild_from_flash``) to
        repopulate firmware state from OOB metadata.
        """
        config = self.config
        self.block_manager = BlockManager(
            self.device, config.block_endurance_cycles
        )
        self.mapping = AddressMappingTable(
            config.logical_pages, config.mapping_cache_entries
        )
        self.wear_leveler = WearLeveler(self)
        self.degraded_reason = None
        self._degraded_since_us = self.clock.now_us
        self._degraded_failure_mark = (
            self.program_failures,
            self.erase_failures,
        )
        if self.scrubber is not None:
            # Scrub bookkeeping (at-risk queue, patrol cursor) is RAM.
            self.scrubber = PatrolScrubber(self)
        if self.checkpointer is not None:
            # Checkpoint bookkeeping (summary cache, block ownership,
            # sequence counter) is RAM; recovery re-adopts what survives
            # on flash via CheckpointWriter.adopt.
            self.checkpointer = CheckpointWriter(self)
        self._last_io_end_us = self.clock.now_us
        self._idle = IdlePredictor()
        self._translation_reads_seen = 0
        self._translation_writes_seen = 0

    def load_mapping(self, head_ppa):
        """Mount the L2P a recovery sweep found: AMT entries and PVT bits
        from its LPA-indexed ``head_ppa`` column, each table in one pass."""
        self.mapping.load(head_ppa)
        self.block_manager.load_valid(head_ppa)


class RegularSSD(BaseSSD):
    """The paper's baseline: a conventional page-mapped SSD.

    Invalid pages are reclaimable immediately; nothing is retained.
    """
