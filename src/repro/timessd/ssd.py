"""TimeSSD: the time-traveling solid-state drive (paper §3).

Externally a TimeSSD behaves exactly like a regular SSD — same
read/write/TRIM interface, same mapping — but every overwritten or
deleted page version is retained for a workload-adaptive window of time
(never below the configured floor) and remains retrievable through the
time-travel index.  :mod:`repro.timekits` provides the query surface.
"""

import random
from collections import defaultdict

from repro.common.atomic import atomic_section
from repro.common.errors import (
    QueryError,
    ReproError,
    RetentionViolationError,
    UncorrectableReadError,
)
from repro.common.units import format_duration
from repro.flash.page import NULL_PPA
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import BaseSSD
from repro.timessd.bloom import TimeSegmentedBlooms
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.delta import DeltaManager, ModeledDeltaCodec, RealDeltaCodec
from repro.timessd.gc import TimeSSDGarbageCollector
from repro.common.idle import IdlePredictor
from repro.timessd.index import TimeTravelIndex, Version
from repro.timessd.retention import GCOverheadEstimator, RetentionManager
from repro.timessd.secure import RetentionCipher, RetentionLock


class TimeSSD(BaseSSD):
    """An SSD that retains past storage states in firmware."""

    def __init__(self, config=None, clock=None):
        config = config or TimeSSDConfig()
        if not isinstance(config, TimeSSDConfig):
            raise TypeError("TimeSSD requires a TimeSSDConfig")
        super().__init__(config, clock)
        self._rng = random.Random(config.seed)
        self.blooms = TimeSegmentedBlooms(
            self.clock,
            capacity_per_filter=config.bloom_capacity,
            fp_rate=config.bloom_fp_rate,
            group_size=config.bloom_group_size,
            seed=config.seed,
            max_segment_age_us=config.bloom_segment_max_age_us,
        )
        self.index = TimeTravelIndex(self.device, reader=self.read_page_with_retry)
        page_size = config.geometry.page_size
        if config.content_mode is ContentMode.REAL:
            codec = RealDeltaCodec(page_size)
        else:
            codec = ModeledDeltaCodec(
                page_size,
                config.modeled_ratio_mean,
                config.modeled_ratio_sd,
                self._rng,
            )
        self.deltas = DeltaManager(
            self,
            codec,
            page_size,
            config.delta_page_header_bytes,
            config.delta_metadata_bytes,
        )
        self.estimator = GCOverheadEstimator(
            config.timing,
            config.gc_overhead_threshold,
            config.gc_overhead_period_writes,
        )
        self.retention = RetentionManager(self.blooms, config.retention_floor_us)
        self.collector = TimeSSDGarbageCollector(self)
        # Replace the base predictor with one on the paper's §3.6 knobs;
        # keep the public alias the tooling and tests use.
        self._idle = IdlePredictor(config.idle_alpha, config.idle_threshold_us)
        self.idle_predictor = self._idle
        self._retained_per_block = defaultdict(int)
        self._trim_tombstones = {}
        if config.retention_key is not None:
            self.retention_lock = RetentionLock(RetentionCipher(config.retention_key))
        else:
            self.retention_lock = None
        self.retained_pages = 0
        self.background_compressed = 0
        self.background_windows = 0
        #: Delta records every :meth:`version_chain` walk has stepped over.
        self.deltas_passed = 0
        metrics = self.obs.metrics
        self._m_shrinks = metrics.counter("timessd.retention.shrinks")
        self._m_expired = metrics.counter("timessd.expire.pages")
        self._m_compress_lost = metrics.counter("timessd.compress.lost_versions")
        self._m_delta_compressions = metrics.counter("timessd.delta.compressions")
        self._m_delta_flushed = metrics.counter("timessd.delta.flushed_pages")
        self._h_query_chain = metrics.histogram("timessd.chain.length")
        self._h_compressed_chain = metrics.histogram("timessd.gc.compressed_chain")

    # --- Retention bookkeeping -------------------------------------------------

    @atomic_section(
        "the retention census (blooms, per-block retained counts, TRIM "
        "tombstones) must move with the validity flip it describes: a "
        "suspension in between would let GC see a stale page the census "
        "does not yet count as retained",
        # The PVT flip, bloom insert and census increment are each
        # independently consistent sub-updates; recovery rebuilds the
        # census from flash, so a geometry/bloom failure mid-way (which
        # means corrupted configuration, not a data race) loses nothing.
    )
    def _on_invalidate(self, lpa, old_ppa, now_us):
        super()._on_invalidate(lpa, old_ppa, now_us)
        self.blooms.record_invalidation(old_ppa)
        pba = self.device.geometry.block_of_page(old_ppa)
        self._retained_per_block[pba] += 1
        self.retained_pages += 1
        if not self.mapping.is_mapped(lpa):
            # TRIM: keep a tombstone so the next write of this LPA links
            # its back-pointer to the deleted version — deleted files
            # stay on the reverse chain (real firmware keeps the stale
            # mapping entry until GC the same way).
            self._trim_tombstones[lpa] = old_ppa

    def _back_pointer_for(self, lpa, old_ppa):
        if old_ppa != NULL_PPA:
            return old_ppa
        return self._trim_tombstones.pop(lpa, old_ppa)

    def _program_user_page(self, lpa, data, now_us):
        # Fail fast: in REAL content mode every write must carry one full
        # page of bytes, or delta compression would blow up much later,
        # deep inside a GC pass.
        if self.config.content_mode is ContentMode.REAL and not isinstance(
            data, (bytes, bytearray)
        ):
            raise ReproError(
                "REAL content mode requires bytes page data for LPA %d "
                "(got %s)" % (lpa, type(data).__name__)
            )
        return super()._program_user_page(lpa, data, now_us)

    def note_page_no_longer_retained(self, ppa):
        """A retained page expired or was compressed into the delta chain."""
        pba = self.device.geometry.block_of_page(ppa)
        if self._retained_per_block[pba] > 0:
            self._retained_per_block[pba] -= 1
            self.retained_pages -= 1

    def forget_block_retention(self, pba):
        """Erasing a block forgets its retained-page census."""
        count = self._retained_per_block.pop(pba, 0)
        self.retained_pages -= count

    def _forget_block(self, pba):
        self.index.clear_block(pba)
        self.forget_block_retention(pba)

    def expire_page(self, ppa):
        """The invalid page at ``ppa`` is in no bloom segment: it was
        invalidated before the retention window opened.  PRT-mark it so
        GC discards it without another read, and (once per page) count it
        and drop it from the retained census."""
        if self.index.mark_reclaimable(ppa):
            self._m_expired.inc()
            self.note_page_no_longer_retained(ppa)

    # --- Write path ---------------------------------------------------------

    def _after_host_request(self, complete_us, wrote):
        super()._after_host_request(complete_us, wrote)
        if wrote and self.estimator.note_user_write():
            # Shrink proportionally to how badly GC overshot the Equation-1
            # threshold (at least one segment, at most four per period).
            drops = max(1, min(4, int(self.estimator.overshoot_ratio())))
            for _ in range(drops):
                if self._shrink_retention(complete_us) is None:
                    break

    # --- Garbage collection ----------------------------------------------------

    def _collect_garbage(self, now_us):
        victim = self.block_manager.select_victim(
            self.config.gc_policy, now_us, BlockKind.DATA
        )
        if victim is None:
            if self._shrink_retention(now_us) is None:
                self._raise_retention_violation()
            return
        before = self.device.counters.snapshot()
        self.collector.reclaim_block(victim, now_us)
        after = self.device.counters
        # Equation 1 counts every GC operation — background rounds never
        # delay a request, but they still consume lifetime (the paper's
        # estimator is a proxy for total GC burden, and write
        # amplification is what Figure 7 holds TimeSSD accountable for).
        self.estimator.note_gc_ops(
            reads=after.page_reads - before.page_reads,
            writes=after.page_programs - before.page_programs,
            erases=after.block_erases - before.block_erases,
            deltas=after.delta_compressions - before.delta_compressions,
        )

    def _on_gc_stall(self, stalled_rounds, now_us):
        # GC is churning without freeing space: the device is filling
        # with valid + retained data.  Every third stalled round, shrink
        # the window (floor permitting) so expired pages open up.  The
        # alarm (stop serving I/O, paper §3.4) fires only when the pool
        # is truly exhausted and the floor forbids recycling.
        if (
            stalled_rounds % 3 == 0
            and self._shrink_retention(now_us) is None
            and self.block_manager.free_block_count <= 2
        ):
            self._raise_retention_violation()

    def relocate_block(self, pba, now_us):
        """Wear-leveling relocation uses the retention-aware reclaimer."""
        self.collector.reclaim_block(pba, now_us)

    def _raise_retention_violation(self):
        oldest = self.blooms.window_start_us()
        raise RetentionViolationError(
            "free space exhausted but the retention floor (%s) forbids "
            "recycling history (oldest retained state: %s old); the device "
            "stops serving writes"
            % (
                format_duration(self.config.retention_floor_us),
                format_duration(self.clock.now_us - oldest),
            ),
            oldest_retained_us=oldest,
            floor_us=self.config.retention_floor_us,
        )

    # --- Retention window ------------------------------------------------------

    @atomic_section(
        "one expiry step: the bloom window advances and the expired "
        "segment's delta blocks are erased together — a suspension in "
        "between would leave queryable timestamps pointing at a segment "
        "the window no longer covers",
        # Grown-bad-block erase failures are absorbed inside
        # erase_and_release (the block is retired); every earlier erase
        # is durable media truth, not state to roll back.
    )
    def _shrink_retention(self, now_us):
        segment = self.retention.shrink()
        if segment is not None:
            self.deltas.drop_segment(segment.segment_id, now_us)
            self._m_shrinks.inc()
            tr = self.obs.trace
            if tr.enabled:
                tr.emit(
                    "expire",
                    "retention-shrink",
                    now_us,
                    segment_id=segment.segment_id,
                    window_us=self.blooms.retention_us(),
                )
        return segment

    def retention_window_us(self):
        """Current achieved retention duration (Figure 8 metric)."""
        return self.blooms.retention_us()

    # --- Volatile-state lifecycle (power loss) ---------------------------------

    def reset_volatile(self):
        """Drop every RAM-resident structure, as an abrupt power cut does.

        Extends :meth:`BaseSSD.reset_volatile` with TimeSSD's volatile
        state: the time-travel index, bloom-filter chain (segment ids
        stay monotonic), RAM delta buffers, retained-page census and TRIM
        tombstones.  A configured retention lock re-seals — after a
        reboot, history retrieval requires the key again.  Follow up with
        :func:`repro.timessd.recovery.rebuild_from_flash`.
        """
        super().reset_volatile()
        self.index = TimeTravelIndex(self.device, reader=self.read_page_with_retry)
        self.blooms.reset()
        self.deltas.reset()
        self.estimator = GCOverheadEstimator(
            self.config.timing,
            self.config.gc_overhead_threshold,
            self.config.gc_overhead_period_writes,
        )
        self._idle = IdlePredictor(
            self.config.idle_alpha, self.config.idle_threshold_us
        )
        self.idle_predictor = self._idle
        self._retained_per_block.clear()
        self._trim_tombstones.clear()
        self.retained_pages = 0
        self.lock_retention()

    # --- Encrypted retention (§3.10) ---------------------------------------------

    def unlock_retention(self, key):
        """Authorize retrieval of encrypted history with the user key."""
        if self.retention_lock is None:
            raise QueryError("this device has no retention key configured")
        self.retention_lock.unlock(key)

    def lock_retention(self):
        """Re-seal encrypted history (e.g. before handing the drive over)."""
        if self.retention_lock is not None:
            self.retention_lock.lock()

    def seal_retained_payload(self, payload, lpa, version_ts):
        """Encrypt a payload entering the retained store (GC calls this)."""
        if self.retention_lock is None:
            return payload
        return self.retention_lock.cipher.encrypt_payload(payload, lpa, version_ts)

    # --- Background (idle) compression -------------------------------------------

    def expire_retention_step(self, now_us, target_window_us):
        """Shrink the retention window one segment toward a target (the
        async core's retention-expiry task body).

        Drops the oldest bloom segment only while the achieved window
        exceeds ``target_window_us`` and the floor guarantee permits.
        Returns True when a segment was dropped (the task calls again
        immediately), False when the window is at or under target or the
        floor refused the shrink.
        """
        if self.retention_window_us() <= target_window_us:
            return False
        return self._shrink_retention(now_us) is not None

    def background_compress(self, start_us, deadline_us):
        """Compress retained pages during a predicted-idle window (§3.6).

        Work is scheduled inside ``[start_us, deadline_us)`` and suspends
        before any step that would overrun the arrival of the request that
        ended the window, so foreground I/O never waits on it.
        """
        if not (self.config.background_compression and self.config.delta_compression):
            return start_us
        self.background_windows += 1
        timing = self.device.timing
        # Conservative per-page cost bound used to decide whether the next
        # compression still fits in the window.
        step_bound = 3 * timing.read_us + timing.delta_compress_us + timing.program_us
        t = start_us
        if t + step_bound > deadline_us:
            return t
        core = self.device.core
        state = core.state
        pages_per_block = core.pages_per_block
        reclaimable = self.index.reclaimable_ppas
        for pba in self._background_victims():
            valid = self.block_manager.valid_bits(pba)
            base = pba * pages_per_block
            for offset in range(pages_per_block):
                ppa = base + offset
                # Column filters first: erased, valid and already
                # compressed/expired pages are not candidates, so an
                # exhausted block costs no seal check and no bloom lookup.
                if not state[ppa] or valid[offset] or ppa in reclaimable:
                    continue
                if not core.intact_at(ppa):
                    # Torn or burned residue of a crash-interrupted
                    # program: no committed version lives here, and the
                    # conservative recovery bloom answers "retained" for
                    # it — compressing it would forge a version from a
                    # timestamp that never committed.
                    continue
                if self.blooms.find_segment(ppa) is None:
                    self.expire_page(ppa)
                    continue
                t, compressed = self.compress_or_lose(ppa, t)
                self.background_compressed += compressed
                # Only a compression advances ``t``: re-check the budget
                # here, before the next page could be marked expired.
                if t + step_bound > deadline_us:
                    return t
        return t

    def compress_or_lose(self, ppa, now_us):
        """Compress the retained page at ``ppa`` plus its older chain into
        deltas; returns ``(complete_us, versions_compressed)``.

        When some page of the chain is gone despite the full ladder, the
        version cannot be kept — retrying every idle window is pointless
        and a block under reclaim is erased regardless — so it is dropped
        and the loss accounted: ``(now_us, 0)``.
        """
        try:
            return self.collector.compress_version_chain(ppa, now_us)
        except UncorrectableReadError:
            self.index.mark_reclaimable(ppa)
            self.note_page_no_longer_retained(ppa)
            self._m_compress_lost.inc()
            return now_us, 0

    @atomic_section(
        "expiry marking or chain compression of a retained page must "
        "commit as one step with the census it updates — the same unit "
        "GC's per-page dispatch commits in reclaim_block",
        # compress_version_chain links deltas before marking sources
        # reclaimable; a mid-step failure leaves every version
        # retrievable from its original flash page.
    )
    def _refresh_retained_page(self, ppa, now_us):
        """Scrub refresh of an invalid-but-retained page.

        A retained old version cannot simply be copied: its back-pointer
        chain would still reference the aging flash page.  Instead it is
        compressed into the LPA's delta chain — the same path GC uses —
        which preserves the version timestamp and chain linkage while
        moving the payload onto freshly-programmed delta pages.
        Retention-expired pages are not worth rescuing: they are marked
        reclaimable so GC discards them without another read.
        """
        if self.index.is_reclaimable(ppa):
            return now_us, False  # already lives in the delta chain
        if self.blooms.find_segment(ppa) is None:
            self.expire_page(ppa)
            return now_us, False
        t, compressed = self.collector.compress_version_chain(ppa, now_us)
        return t, compressed > 0

    def _background_victims(self, limit=None):
        """Sealed data blocks richest in retained, uncompressed pages."""
        limit = limit or self.config.idle_scan_blocks
        kind = self.block_manager.kind
        active = self.block_manager.active_blocks()
        candidates = [
            (count, pba)
            for pba, count in self._retained_per_block.items()
            if count > 0 and pba not in active and kind(pba) is BlockKind.DATA
        ]
        candidates.sort(reverse=True)
        return [pba for _count, pba in candidates[:limit]]

    # --- Version retrieval (the substrate TimeKits queries ride on) -------------

    def unmapped_lpas_with_history(self):
        """Ascending LPAs that have no current version but a chain
        :meth:`version_chain` can still reach: trimmed and not rewritten
        (the tombstone), or left unmapped with a delta head by recovery
        (a stale pre-trim page is never mapped as current)."""
        is_mapped = self.mapping.is_mapped
        candidates = self._trim_tombstones.keys() | self.index.delta_head_lpas()
        return sorted(lpa for lpa in candidates if not is_mapped(lpa))

    def version_chain(
        self,
        lpa,
        start_us=None,
        until_ts=None,
        payloads=True,
        delta_pages=None,
    ):
        """All retrievable versions of ``lpa``, newest first.

        Returns ``(versions, complete_us)`` where ``versions`` includes
        the current (valid) version first, then retained older versions
        from the data-page chain and the delta chain, deduplicated by
        write timestamp.  Costs are charged like real firmware: dependent
        page reads sequenced per channel plus decompression time.

        ``until_ts`` enables the paper's AddrQuery early stop: the walk
        ends at the first version written at or before ``until_ts``, and
        the delta chain is only consulted when the data-page chain did
        not reach that far back.

        ``payloads=False`` is the walk of a query that answers with
        timestamps only: the same page reads and the same
        ``(timestamp_us, source)`` list, but no retained payload is
        opened or decompressed — a delta's timestamp sits in the header
        of the delta page the walk has just read, and the paper's Table 3
        prices TimeQuery as a scan of flash reads — so nothing is billed
        ``delta_decompress_us`` and every ``Version.data`` — data-page
        entries included — is ``None``.

        ``delta_pages`` is the set of flushed delta pages already in the
        controller's buffer: a page in it costs no read, a page the walk
        fetches joins it.  :meth:`TimeKits.walk_many` hands one set to
        every walk of a vendor command; left ``None`` the buffer lives
        for this walk alone.
        """
        if self.retention_lock is not None and not self.retention_lock.unlocked:
            # §3.10: with a retention key configured, history retrieval
            # is firmware-gated — current data stays readable via read(),
            # but no past version leaves the device until unlock.
            raise QueryError(
                "retained history is locked; call unlock_retention(key)"
            )
        t = self.clock.now_us if start_us is None else start_us
        head_ppa = self.mapping.lookup(lpa)
        has_current = head_ppa != NULL_PPA
        if not has_current:
            # TRIMmed and never rewritten: the deleted version chain is
            # still reachable through the tombstone.
            head_ppa = self._trim_tombstones.get(lpa, NULL_PPA)
        versions = []
        by_ts = {}  # write timestamp -> page bytes, for every version seen

        walk = self.index.walk_data_chain(lpa, head_ppa, t, until_ts=until_ts)
        t = walk.complete_us
        for i, (_ppa, oob, data) in enumerate(walk.entries):
            source = "current" if (i == 0 and has_current) else "data-page"
            if not payloads:
                data = None
            versions.append(Version(lpa, oob.timestamp_us, data, source))
            by_ts[oob.timestamp_us] = data

        if (
            until_ts is not None
            and versions
            and versions[-1].timestamp_us <= until_ts
        ):
            # The data-page chain already reached the target time.
            self._h_query_chain.record(len(versions))
            return versions, t

        delta_walk = self.index.walk_delta_chain(
            lpa, t, until_ts=until_ts, delta_pages=delta_pages
        )
        t = delta_walk.complete_us
        self.deltas_passed += len(delta_walk.entries)
        timing = self.device.timing
        for record in delta_walk.entries:
            if record.version_ts in by_ts:
                continue  # still on an un-erased data page; prefer that copy
            data = None
            if payloads:
                data = record.payload
                if self.retention_lock is not None:
                    data = self.retention_lock.open_payload(data)
                if record.compressed:
                    data = self.deltas.codec.decompress(
                        data, by_ts.get(record.ref_ts)
                    )
            if record.compressed and payloads:
                # Only a walk that hands out bytes runs the decompressor;
                # a stamp-only walk has the timestamp from the page read.
                self.device.counters.delta_decompressions += 1
                channel = (
                    self.device.geometry.channel_of_page(record.flash_ppa)
                    if record.flash_ppa is not None
                    else 0
                )
                t = self.device.timelines.schedule(
                    channel, t, timing.delta_decompress_us
                )
            source = "delta" if record.flash_ppa is not None else "delta-ram"
            versions.append(Version(lpa, record.version_ts, data, source))
            by_ts[record.version_ts] = data
            if until_ts is not None and record.version_ts <= until_ts:
                break
        self._h_query_chain.record(len(versions))
        return versions, t

    # --- Observability ----------------------------------------------------------

    def _refresh_gauges(self):
        super()._refresh_gauges()
        metrics = self.obs.metrics
        metrics.gauge("timessd.retention.window_us").set(self.retention_window_us())
        metrics.gauge("timessd.retained_pages").set(self.retained_pages)
        metrics.gauge("timessd.bloom.live_segments").set(
            len(self.blooms.live_segments())
        )
        metrics.gauge("timessd.delta.ram_bytes").set(self.deltas.ram_bytes())
        metrics.gauge("timessd.delta.records_created").set(
            self.deltas.records_created
        )
        metrics.gauge("timessd.background.compressed").set(self.background_compressed)

    def __repr__(self):
        return "TimeSSD(%d logical pages, retention=%s, retained=%d pages)" % (
            self.logical_pages,
            format_duration(self.retention_window_us()),
            self.retained_pages,
        )
