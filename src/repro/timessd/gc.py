"""TimeSSD's retained-version compression — Algorithm 1, lines 19-25 (§3.8).

GC reclaims a TimeSSD block with the loop every device uses,
``BaseSSD.relocate_block``; only the stale-page rule differs
(``TimeSSD._settle_stale_page``, which GC, background compression and
scrub refresh all call).  A retained page is delta-compressed here
together with the not-yet-compressed older versions below it, found by
the index's one chain-hop rule (``TimeTravelIndex.older_versions``);
the deltas join the head of the LPA's delta chain and the source pages
are marked reclaimable.
"""

from repro.common.atomic import atomic_section
from repro.flash.page import NULL_PPA
from repro.timessd.delta import NO_REF_TS, DeltaRecord


class TimeSSDGarbageCollector:
    """Retained-version compression for GC and the idle-time compressor."""

    def __init__(self, ssd):
        self._ssd = ssd

    # --- Retained-version compression (Algorithm 1, lines 19-25) --------------

    @atomic_section(
        "chain walk + delta append + newest-first relink + reclaimable "
        "marking are one compression step: a request served mid-step "
        "could retrieve a version whose delta record exists but is not "
        "yet linked into the chain",
        # Sources are marked reclaimable only after their deltas are
        # linked and buffered, so a mid-step failure leaves every
        # version still retrievable from its original flash page.
    )
    def compress_version_chain(self, ppa, now_us, segment=None, deadline_us=None):
        """Compress the retained page at ``ppa`` plus its older chain.

        Returns ``(complete_us, versions_compressed)``.  Also used by the
        background (idle-time) compressor, which is why it never erases
        anything — it only converts data-page versions into deltas and
        marks the sources reclaimable in the PRT.  ``segment`` is the
        bloom segment the caller found ``ppa`` in (None: looked up here).
        With a ``deadline_us`` a chain whose :meth:`chain_cost_bound` (from
        the one walk below) does not fit is left whole: ``(now_us, 0)``.
        """
        ssd = self._ssd
        device = ssd.device
        core = device.core
        stamps = core.timestamp_us

        lpa = core.lpa[ppa]
        backs = list(ssd.index.older_versions(lpa, core.back_pointer[ppa], stamps[ppa]))
        if (
            deadline_us is not None
            and now_us + self.chain_cost_bound(len(backs), device.timing) > deadline_us
        ):
            return now_us, 0
        blooms = ssd.blooms
        if segment is None:
            # Outside the stale-page rule (tests, tooling) the head may be
            # in no segment; it is retained with the newest one then.
            segment = blooms.find_segment(ppa) or blooms.live_segments()[-1]

        # The not-yet-compressed older versions join the chain, each with
        # the segment its page was found in; an expired one is marked
        # reclaimable and ends it (invalidation times decrease down the
        # chain, so everything older is expired too).
        read = ssd.page_reader()
        t = read(ppa, now_us)[0]
        chain = [(ppa, segment.segment_id)]
        for back in backs:
            t = read(back, t)[0]
            found = blooms.find_segment(back)
            if found is None:
                ssd.expire_page(back)
                break
            chain.append((back, found.segment_id))

        # The latest (valid) version is the compression reference.
        compressing = ssd.config.delta_compression
        ref_data, ref_ts = None, NO_REF_TS
        if compressing:
            head_ppa = ssd.mapping.lookup(lpa)
            if head_ppa != NULL_PPA:
                t = read(head_ppa, t)[0]
                ref_data, ref_ts = core.data[head_ppa], stamps[head_ppa]

        previous_head = ssd.index.prune_dropped_head(lpa)
        records = []
        for src_ppa, segment_id in chain:
            version_ts = stamps[src_ppa]
            if version_ts == ref_ts:
                # A refresh-migration duplicate of the reference head:
                # the same version, already retrievable as the current
                # data page.  A delta record for it would reference
                # itself (version_ts == ref_ts) and become unresolvable
                # once the data pages are reclaimed — drop the page,
                # keep no record.
                continue
            if compressing:
                payload, size = ssd.deltas.codec.compress(core.data[src_ppa], ref_data)
                t = device.timelines.schedule(
                    device.geometry.channel_of_page(src_ppa),
                    t,
                    device.timing.delta_compress_us,
                )
            else:
                # Ablation mode: retained versions move uncompressed.
                payload, size = core.data[src_ppa], device.geometry.page_size
            if ssd.retention_lock is not None:
                payload = ssd.seal_retained_payload(payload, lpa, version_ts)
            records.append(
                DeltaRecord(
                    lpa, version_ts, ref_ts, payload, size, segment_id,
                    None, None, False, compressing,
                )
            )
        if compressing:
            ssd._m_delta_compressions.inc(len(records))
        # Newest-first linking, merged with the pre-existing delta chain.
        # The records are newest first; when the oldest is newer than the
        # old head (the usual case) they are simply prepended.  But
        # orphaned chain fragments (back-pointers broken by GC page reuse)
        # can be compressed after younger versions were — the merge keeps
        # the chain strictly newest-first regardless.
        if records and (
            previous_head is None
            or records[-1].version_ts > previous_head.version_ts
        ):
            for newer, older in zip(records, records[1:]):
                newer.back = older
            records[-1].back = previous_head
            ssd.index.set_delta_head(lpa, records[0])
        elif records:  # none when the whole chain was head duplicates
            previous = list(ssd.index.live_deltas(previous_head))
            tail = previous[-1].back
            merged = []
            i = j = 0
            while i < len(records) and j < len(previous):
                if records[i].version_ts > previous[j].version_ts:
                    merged.append(records[i])
                    i += 1
                else:
                    merged.append(previous[j])
                    j += 1
            merged.extend(records[i:])
            merged.extend(previous[j:])
            for newer, older in zip(merged, merged[1:]):
                newer.back = older
            merged[-1].back = tail
            ssd.index.set_delta_head(lpa, merged[0])
        t = ssd.deltas.add_records(records, t)
        prt = ssd.block_manager.reclaimable
        for src_ppa, _segment_id in chain:
            if not prt[src_ppa]:
                prt[src_ppa] = 1
                ssd.note_page_no_longer_retained(src_ppa)
        ssd._h_compressed_chain.record(len(records))
        return t, len(records)

    @staticmethod
    def chain_cost_bound(k, timing):
        """Media time of compressing a retained page over ``k`` older
        versions, at most: k + 2 reads (the chain, the reference) and
        k + 1 compressions, each of whose records may flush a page."""
        return (k + 2) * timing.read_us + (k + 1) * (
            timing.delta_compress_us + timing.program_us
        )
