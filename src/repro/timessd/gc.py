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
    def compress_version_chain(self, ppa, now_us):
        """Compress the retained page at ``ppa`` plus its older chain.

        Returns ``(complete_us, versions_compressed)``.  Also used by the
        background (idle-time) compressor, which is why it never erases
        anything — it only converts data-page versions into deltas and
        marks the sources reclaimable in the PRT.
        """
        ssd = self._ssd
        device = ssd.device
        core = device.core
        index = ssd.index
        read = ssd.read_page_with_retry

        t = read(ppa, now_us)[0]
        lpa = core.lpa[ppa]

        # The not-yet-compressed older versions join the chain; an expired
        # one is marked reclaimable and ends it (invalidation times
        # decrease down the chain, so everything older is expired too).
        chain = [ppa]
        newer_ts = core.timestamp_us[ppa]
        for back in index.older_versions(lpa, core.back_pointer[ppa], newer_ts):
            t = read(back, t)[0]
            if ssd.blooms.find_segment(back) is None:
                ssd.expire_page(back)
                break
            chain.append(back)

        compressing = ssd.config.delta_compression
        if compressing:
            ref_data, ref_ts, t = self._read_reference(lpa, t)
        else:
            ref_data, ref_ts = None, NO_REF_TS

        previous_head = index.prune_dropped_head(lpa)
        records = []
        for src_ppa in chain:
            version_ts = core.timestamp_us[src_ppa]
            if version_ts == ref_ts:
                # A refresh-migration duplicate of the reference head:
                # the same version, already retrievable as the current
                # data page.  A delta record for it would reference
                # itself (version_ts == ref_ts) and become unresolvable
                # once the data pages are reclaimed — drop the page,
                # keep no record.
                continue
            data = core.data[src_ppa]
            if compressing:
                payload, size = ssd.deltas.codec.compress(data, ref_data)
                ssd._m_delta_compressions.inc()
                t = device.timelines.schedule(
                    device.geometry.channel_of_page(src_ppa),
                    t,
                    device.timing.delta_compress_us,
                )
            else:
                # Ablation mode: retained versions move uncompressed.
                payload, size = data, device.geometry.page_size
            payload = ssd.seal_retained_payload(payload, lpa, version_ts)
            segment = ssd.blooms.find_segment(src_ppa)
            if segment is None:
                # BF false negative cannot happen; this is the rare case of
                # a chain page racing expiration mid-walk.  Retain it with
                # the newest segment so no version silently disappears.
                segment = ssd.blooms.live_segments()[-1]
            records.append(
                DeltaRecord(
                    lpa=lpa,
                    version_ts=version_ts,
                    ref_ts=ref_ts,
                    payload=payload,
                    size_bytes=size,
                    segment_id=segment.segment_id,
                    compressed=compressing,
                )
            )
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
            index.set_delta_head(lpa, records[0])
        elif records:  # none when the whole chain was head duplicates
            previous = list(index.live_deltas(previous_head))
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
            index.set_delta_head(lpa, merged[0])
        for record in records:
            t = ssd.deltas.add_record(record, t)
        for src_ppa in chain:
            if ssd.block_manager.mark_reclaimable(src_ppa):
                ssd.note_page_no_longer_retained(src_ppa)
        ssd._h_compressed_chain.record(len(records))
        return t, len(records)

    def _read_reference(self, lpa, now_us):
        """Read the latest (valid) version as the compression reference."""
        ssd = self._ssd
        head_ppa = ssd.mapping.lookup(lpa)
        if head_ppa == NULL_PPA:
            return None, NO_REF_TS, now_us
        t = ssd.read_page_with_retry(head_ppa, now_us)[0]
        core = ssd.device.core
        return core.data[head_ppa], core.timestamp_us[head_ppa], t
