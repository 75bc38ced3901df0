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
    RetentionViolationError,
    UncorrectableReadError,
)
from repro.common.units import format_duration
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import BaseSSD, ReclaimOutcome
from repro.timessd.bloom import TimeSegmentedBlooms
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.delta import (
    NO_REF_TS,
    DeltaManager,
    DeltaRecord,
    ModeledDeltaCodec,
    RealDeltaCodec,
)
from repro.timessd.gc import TimeSSDGarbageCollector
from repro.timessd.index import TimeTravelIndex, Version
from repro.timessd.retention import GCOverheadEstimator, RetentionManager
from repro.timessd.secure import RetentionCipher, RetentionLock


class TimeSSD(BaseSSD):
    """An SSD that retains past storage states in firmware."""

    #: Background compression victim scan: blocks examined per idle window.
    IDLE_SCAN_BLOCKS = 4

    def __init__(self, config=None, clock=None):
        config = config or TimeSSDConfig()
        if not isinstance(config, TimeSSDConfig):
            raise TypeError("TimeSSD requires a TimeSSDConfig")
        super().__init__(config, clock)
        self._rng = random.Random(config.seed)
        self.blooms = TimeSegmentedBlooms(
            self.clock,
            capacity_per_filter=config.bloom_capacity,
            group_size=config.bloom_group_size,
            seed=config.seed,
            max_segment_age_us=config.bloom_segment_max_age_us,
        )
        self.index = TimeTravelIndex(self.device, self.block_manager.reclaimable)
        page_size = config.geometry.page_size
        if config.content_mode is ContentMode.REAL:
            self.host_page_bytes = page_size
            codec = RealDeltaCodec(page_size)
        else:
            codec = ModeledDeltaCodec(page_size, rng=self._rng)
        self.deltas = DeltaManager(self, codec, page_size)
        self.estimator = GCOverheadEstimator(
            config.timing,
            config.gc_overhead_threshold,
            config.gc_overhead_period_writes,
        )
        self.retention = RetentionManager(self.blooms, config.retention_floor_us)
        self.collector = TimeSSDGarbageCollector(self)
        self._retained_per_block = defaultdict(int)
        if config.retention_key is not None:
            self.retention_lock = RetentionLock(RetentionCipher(config.retention_key))
        else:
            self.retention_lock = None
        self.retained_pages = 0
        self.background_compressed = 0
        self.background_windows = 0
        #: Delta records every :meth:`version_chain` walk has stepped
        #: over / run the decompressor on.
        self.deltas_passed = 0
        self.deltas_decompressed = 0
        metrics = self.obs.metrics
        self._m_shrinks = metrics.counter("timessd.retention.shrinks")
        self._m_expired = metrics.counter("timessd.expire.pages")
        self._m_compress_lost = metrics.counter("timessd.compress.lost_versions")
        self._m_delta_compressions = metrics.counter("timessd.delta.compressions")
        self._h_query_chain = metrics.histogram("timessd.chain.length")
        self._h_compressed_chain = metrics.histogram("timessd.gc.compressed_chain")

    # --- Retention bookkeeping -------------------------------------------------

    @atomic_section(
        "the retention census (blooms, per-block retained counts, a "
        "TRIM's tombstone record) must move with the validity flip it "
        "describes: a suspension in between would let GC see a stale "
        "page the census does not yet count as retained",
        # The PVT flip, bloom insert and census increment are each
        # independently consistent sub-updates; recovery rebuilds the
        # census from flash, so a geometry/bloom failure mid-way (which
        # means corrupted configuration, not a data race) loses nothing.
    )
    def _on_invalidate(self, lpa, old_ppa, now_us):
        super()._on_invalidate(lpa, old_ppa, now_us)
        segment = self.blooms.record_invalidation(old_ppa)
        pba = old_ppa // self.device.core.pages_per_block
        self._retained_per_block[pba] += 1
        self.retained_pages += 1
        if not self.mapping.is_mapped(lpa):
            self._append_tombstone(lpa, old_ppa, segment, now_us)

    def _append_tombstone(self, lpa, old_ppa, segment, now_us):
        """A TRIM of ``lpa``, whose head was ``old_ppa``, enters its
        history: a zero-payload record, stamped with the deletion's time,
        heads the delta chain and hands the walk to the deleted chain.
        It joins the active segment's delta buffer (the segment its
        deleted head was just recorded in) and is durable once that
        buffer's delta page is programmed, like every other record.
        When it does not fit, ``add_records`` first programs the records
        already buffered; the TRIM does not wait for that program, which
        holds no record of its own (the channel's later operations do)."""
        record = DeltaRecord(
            lpa=lpa,
            # Newer than the version it deletes, even when both land in
            # the same microsecond (the chain hop needs a strict order).
            version_ts=max(now_us, self.device.core.timestamp_us[old_ppa] + 1),
            ref_ts=NO_REF_TS,
            payload=None,
            size_bytes=0,
            segment_id=segment.segment_id,
            back=self.index.prune_dropped_head(lpa),
            compressed=False,
            data_back=old_ppa,
        )
        self.index.set_delta_head(lpa, record)
        self.deltas.add_records((record,), now_us)

    def note_page_no_longer_retained(self, ppa):
        """A retained page expired or was compressed into the delta chain."""
        pba = ppa // self.device.core.pages_per_block
        census = self._retained_per_block
        count = census.get(pba, 0)
        if count > 0:
            # A block leaves the census with its last retained page, so
            # the idle compressor's victim scan sees no empty entries.
            if count == 1:
                del census[pba]
            else:
                census[pba] = count - 1
            self.retained_pages -= 1

    def forget_block_retention(self, pba):
        """Erasing a block forgets its retained-page census."""
        count = self._retained_per_block.pop(pba, 0)
        self.retained_pages -= count

    def _forget_block(self, pba):
        self.forget_block_retention(pba)

    def expire_page(self, ppa):
        """The invalid page at ``ppa`` is in no bloom segment: it was
        invalidated before the retention window opened.  PRT-mark it so
        GC discards it without another read, and (once per page) count it
        and drop it from the retained census."""
        if self.block_manager.mark_reclaimable(ppa):
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
        device = self.device
        reads, writes = device.page_reads.value, device.page_programs.value
        erases, deltas = device.block_erases.value, self._m_delta_compressions.value
        self.relocate_block(victim, now_us)
        # Equation 1 counts every GC operation — background rounds never
        # delay a request, but they still consume lifetime (the paper's
        # estimator is a proxy for total GC burden, and write
        # amplification is what Figure 7 holds TimeSSD accountable for).
        self.estimator.note_gc_ops(
            reads=device.page_reads.value - reads,
            writes=device.page_programs.value - writes,
            erases=device.block_erases.value - erases,
            deltas=self._m_delta_compressions.value - deltas,
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
        stay monotonic), RAM delta buffers (unflushed tombstones among
        them) and retained-page census.  A configured retention lock
        re-seals — after a reboot, history retrieval requires the key
        again.  Follow up with
        :func:`repro.timessd.recovery.rebuild_from_flash`.
        """
        super().reset_volatile()
        self.index = TimeTravelIndex(self.device, self.block_manager.reclaimable)
        self.blooms.reset()
        self.deltas.reset()
        self.estimator = GCOverheadEstimator(
            self.config.timing,
            self.config.gc_overhead_threshold,
            self.config.gc_overhead_period_writes,
        )
        self._retained_per_block.clear()
        self.retained_pages = 0
        self.lock_retention()

    # --- Encrypted retention (§3.10) ---------------------------------------------

    def unlock_retention(self, key):
        """Authorize retrieval of encrypted history with the user key."""
        if self.retention_lock is None:
            raise QueryError("this device has no retention key configured")
        self.retention_lock.unlock(key)

    def lock_retention(self):
        """Re-seal encrypted history (e.g. before handing the drive over).

        The delta codec's memos hold plaintext versions, so they are
        dropped too: no decoded history outlives a re-seal (or, through
        :meth:`reset_volatile`, a power cut) in controller RAM.
        """
        self.deltas.codec.drop_memos()
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
        step_bound = self.device.timing.idle_compress_floor_us()
        t = start_us
        if t + step_bound > deadline_us:
            return t
        state = self.device.core.state
        pages_per_block = self.device.core.pages_per_block
        valid = self.block_manager.valid
        reclaimable = self.block_manager.reclaimable
        tally = ReclaimOutcome(None)
        try:
            for pba in self._background_victims():
                base = pba * pages_per_block
                for ppa in range(base, base + pages_per_block):
                    # A PRT-marked page is already compressed or expired:
                    # the stale-page rule would only discard it.
                    if not state[ppa] or valid[ppa] or reclaimable[ppa]:
                        continue
                    # A retained page is admitted against its own chain's
                    # cost, which the floor need not cover; one that does
                    # not fit is left whole for a longer window, and the
                    # pages behind it still get this one.
                    t = self._settle_stale_page(ppa, t, tally, deadline_us)
                    if t + step_bound > deadline_us:
                        return t
        finally:
            # Counted even when a power cut ends the window mid-block.
            self.background_compressed += tally.compressed
        return t

    def settle_cost_bound(self, ppa):
        """Upper bound on the media time :meth:`_settle_stale_page` spends
        on ``ppa``: nothing for a page it only marks or discards (valid,
        PRT-marked, expired); for a retained page, its chain's
        ``chain_bound_us`` — what the idle compressor admits it by."""
        bm = self.block_manager
        if bm.valid[ppa] or bm.reclaimable[ppa] or not self.blooms.is_retained(ppa):
            return 0
        core = self.device.core
        older = self.index.older_versions(
            core.lpa[ppa], core.back_pointer[ppa], core.timestamp_us[ppa]
        )
        return self.device.timing.chain_bound_us(sum(1 for _ in older))

    @atomic_section(
        "expiry marking or chain compression of a retained page must "
        "commit as one step with the census it updates — the same unit "
        "whether GC's relocate_block, the idle compressor or scrub asks",
        # compress_version_chain links deltas before marking sources
        # reclaimable; a mid-step failure leaves every version
        # retrievable from its original flash page.
    )
    def _settle_stale_page(self, ppa, now_us, outcome, deadline_us=None):
        """Algorithm 1, lines 13-25, for the stale page at ``ppa``: the one
        stale-page rule, shared by GC's :meth:`relocate_block`,
        :meth:`background_compress` and scrub's refresh of an at-risk
        retained page (compressing it moves the payload onto fresh delta
        pages and keeps its timestamp and chain linkage).  One bloom probe
        decides expiry, and its segment is the one the record joins; the
        idle compressor's ``deadline_us`` leaves a chain that does not
        fit whole."""
        if self.block_manager.reclaimable[ppa]:
            # Already compressed or expired (only committed pages ever
            # enter the PRT): discard without a seal check.
            outcome.discarded_reclaimable += 1
            return now_us
        if not self.device.core.intact_at(ppa):
            # Torn or burned residue of a crash-interrupted program: no
            # committed version lives here, and the conservative recovery
            # bloom answers "retained" for it — compressing it would forge
            # a version from a timestamp that never committed.
            outcome.discarded_garbage += 1
            return now_us
        segment = self.blooms.find_segment(ppa)
        if segment is None:
            # Expired: invalidated before the retention window opened.
            self.expire_page(ppa)
            outcome.discarded_expired += 1
            return now_us
        # A chain unreadable through the full ladder loses the version;
        # a block under reclaim is erased all the same.
        t, compressed = self.compress_or_lose(ppa, now_us, segment, deadline_us)
        outcome.compressed += compressed
        return t

    def compress_or_lose(self, ppa, now_us, segment=None, deadline_us=None):
        """Compress the retained page at ``ppa`` plus its older chain into
        deltas (``compress_version_chain``, which takes ``segment`` and
        ``deadline_us``); returns ``(complete_us, versions_compressed)``.

        When some page of the chain is gone despite the full ladder, the
        version cannot be kept — retrying every idle window is pointless
        and a block under reclaim is erased regardless — so it is dropped
        and the loss accounted: ``(now_us, 0)``.
        """
        try:
            return self.collector.compress_version_chain(
                ppa, now_us, segment, deadline_us
            )
        except UncorrectableReadError:
            self.block_manager.mark_reclaimable(ppa)
            self.note_page_no_longer_retained(ppa)
            self._m_compress_lost.inc()
            return now_us, 0

    def _background_victims(self):
        """Sealed data blocks richest in retained, uncompressed pages."""
        census = self._retained_per_block
        kind = self.block_manager.kind
        active = self.block_manager.active_blocks()
        victims = []
        # Every census entry counts at least one page.  Two C-level sorts
        # of the PBAs — descending, then (stable) by count — give the
        # (count, pba) order, descending; then the candidate test only
        # until enough pass.  On a census of a few dozen blocks this beats
        # sorting the pairs, testing every entry first, and nlargest.
        ranked = sorted(census, reverse=True)
        ranked.sort(key=census.__getitem__, reverse=True)
        for pba in ranked:
            if pba not in active and kind(pba) is BlockKind.DATA:
                victims.append(pba)
                if len(victims) == self.IDLE_SCAN_BLOCKS:
                    break
        return victims

    # --- Version retrieval (the substrate TimeKits queries ride on) -------------

    def lpas_with_history(self):
        """Every LPA :meth:`version_chain` can answer for: the mapped
        ones in mapping order, then, ascending, those with no current
        version but a delta chain — trimmed and not rewritten (a
        tombstone heads it), or left unmapped by recovery."""
        is_mapped = self.mapping.is_mapped
        unmapped = sorted(
            lpa for lpa in self.index.delta_head_lpas() if not is_mapped(lpa)
        )
        return list(self.mapping.mapped_lpas()) + unmapped

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
        write timestamp.  A TRIM is a ``"deleted"`` version (no data) at
        its time, followed by the versions it deleted: the delta chain's
        tombstone hands the walk to the deleted data-page chain before
        its older records.  Costs are charged like real firmware:
        dependent page reads sequenced per channel, then decompression
        time.  This is the one timed chain walk: each hop is the one
        taken by :meth:`TimeTravelIndex.older_versions` (the hop rule)
        and costs one :meth:`read_page_with_retry` — the read-retry
        ladder when the reliability model is on — after which the stamp
        and bytes are read from the flash core's columns.

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
        lock = self.retention_lock
        if lock is not None and not lock.unlocked:
            # §3.10: with a retention key configured, history retrieval
            # is firmware-gated — current data stays readable via read(),
            # but no past version leaves the device until unlock.
            raise QueryError(
                "retained history is locked; call unlock_retention(key)"
            )
        device = self.device
        core = device.core
        stamps = core.timestamp_us
        pages = core.data
        read = self.page_reader()
        hops = self.index.older_versions
        t = self.clock.now_us if start_us is None else start_us

        # The reads, newest first: the data-page chain, then (unless it
        # reached ``until_ts``) the delta chain with each tombstone's
        # branch after it.  Every one is booked before any decompression.
        entries = []  # data-page PPAs and live delta records
        reached = False
        for ppa in hops(lpa, self.mapping.lookup(lpa)):
            t = read(ppa, t)[0]
            entries.append(ppa)
            if until_ts is not None and stamps[ppa] <= until_ts:
                reached = True
                break
        if not reached:
            if delta_pages is None:
                delta_pages = set()
            for record in self.index.live_deltas(self.index.delta_head(lpa)):
                flash_ppa = record.flash_ppa
                if flash_ppa is not None and flash_ppa not in delta_pages:
                    t = read(flash_ppa, t)[0]
                    delta_pages.add(flash_ppa)
                entries.append(record)
                if until_ts is not None and record.version_ts <= until_ts:
                    break
                if record.data_back is not None:
                    for ppa in hops(lpa, record.data_back, record.version_ts):
                        t = read(ppa, t)[0]
                        entries.append(ppa)
                        if until_ts is not None and stamps[ppa] <= until_ts:
                            reached = True
                            break
                    if reached:
                        break

        versions = []
        by_ts = {}  # write timestamp -> page bytes, for every version seen
        new = tuple.__new__  # a Version without its constructor's call
        timelines = device.timelines
        channel_of_page = device.geometry.channel_of_page
        decompress_us = device.timing.delta_decompress_us
        for i, entry in enumerate(entries):
            if type(entry) is int:  # a data page; the first entry is the head
                ts = stamps[entry]
                data = pages[entry] if payloads else None
                source = "data-page" if i else "current"
                versions.append(new(Version, (lpa, ts, data, source)))
                by_ts[ts] = data
                continue
            record = entry
            self.deltas_passed += 1
            if record.data_back is not None:
                versions.append(
                    new(Version, (lpa, record.version_ts, None, "deleted"))
                )
                continue
            if record.version_ts in by_ts:
                continue  # still on an un-erased data page; prefer that copy
            data = None
            if payloads:
                data = record.payload
                if lock is not None:
                    data = lock.open_payload(data)
                if record.compressed:
                    data = self.deltas.codec.decompress(
                        data, by_ts.get(record.ref_ts)
                    )
            if record.compressed and payloads:
                # Only a walk that hands out bytes runs the decompressor;
                # a stamp-only walk has the timestamp from the page read.
                # A RAM delta crosses no flash channel: it holds the walk only.
                self.deltas_decompressed += 1
                if record.flash_ppa is None:
                    t += decompress_us
                else:
                    channel = channel_of_page(record.flash_ppa)
                    t = timelines.schedule(channel, t, decompress_us)
            source = "delta" if record.flash_ppa is not None else "delta-ram"
            versions.append(new(Version, (lpa, record.version_ts, data, source)))
            by_ts[record.version_ts] = data
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
