"""TimeSSD garbage collection — the paper's Algorithm 1 (§3.8).

Differences from regular GC:

* expired delta blocks are reclaimed first (erase only, no migration) —
  in this model that happens eagerly when a bloom segment is dropped;
* invalid pages are *not* reclaimed blindly: a page marked reclaimable in
  the PRT (already compressed, or known expired) is discarded; a page
  missing every bloom filter is expired and discarded; anything else is
  retained — it is delta-compressed together with the not-yet-compressed
  older versions reachable through its back-pointer chain, the deltas are
  appended to the head of the LPA's delta chain, and the source pages are
  marked reclaimable.

The same reclamation routine serves wear-leveling relocations, as §3.8
prescribes.
"""

from dataclasses import dataclass

from repro.common.atomic import atomic_section
from repro.common.errors import UncorrectableReadError
from repro.flash.page import NULL_PPA
from repro.timessd.delta import NO_REF_TS, DeltaRecord


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


class TimeSSDGarbageCollector:
    """Block reclamation with version retention."""

    def __init__(self, ssd):
        self._ssd = ssd

    # --- Block reclamation (Algorithm 1, lines 5-26) --------------------------

    @atomic_section(
        "Algorithm 1 reclaims a block as one step: migrate/compress/"
        "discard every page, then erase and release — a foreground write "
        "interleaved mid-reclaim could allocate into the half-emptied "
        "victim or read a version whose delta head is being relinked",
        # Each per-page iteration commits a self-consistent unit (a
        # migrated page is remapped before the next page is touched; a
        # compressed chain is linked before its sources are marked
        # reclaimable), so a mid-loop failure loses no version.
        restores_state=True,
    )
    def reclaim_block(self, victim_pba, now_us):
        """Reclaim one data block; returns a :class:`ReclaimOutcome`."""
        ssd = self._ssd
        core = ssd.device.core
        outcome = ReclaimOutcome(victim_pba)
        t = now_us
        base = ssd.device.geometry.first_page_of_block(victim_pba)
        state = core.state
        valid = ssd.block_manager.valid_bits(victim_pba)
        reclaimable = ssd.index.reclaimable_ppas
        for offset in range(core.pages_per_block):
            ppa = base + offset
            if not state[ppa]:
                continue
            is_valid = valid[offset]
            if not is_valid and ppa in reclaimable:
                # Already compressed or expired (only committed pages
                # ever enter the PRT): discard without a seal check.
                outcome.discarded_reclaimable += 1
                continue
            if not core.intact_at(ppa):
                # Torn or burned program: nothing committed lives here,
                # so there is no version to retain or compress.
                outcome.discarded_garbage += 1
                continue
            if is_valid:
                try:
                    result = ssd.read_page_with_retry(ppa, t)
                except UncorrectableReadError:
                    ssd.note_lost_valid_page(ppa)
                    continue
                # A cursor threads read -> program -> next page (the
                # baseline loop issues them all at the round's start).
                t = ssd.migrate_page(ppa, result, result.complete_us)
                outcome.migrated_valid += 1
            elif ssd.blooms.find_segment(ppa) is None:
                # Expired: invalidated before the retention window opened.
                ssd.expire_page(ppa)
                outcome.discarded_expired += 1
            else:
                # A chain unreadable through the full ladder loses the
                # version; the block is reclaimed all the same.
                t, compressed = ssd.compress_or_lose(ppa, t)
                outcome.compressed += compressed
        t = ssd.erase_and_release(victim_pba, t)
        outcome.complete_us = t
        ssd._m_gc_migrated.inc(outcome.migrated_valid)
        tr = ssd.obs.trace
        if tr.enabled:
            tr.emit(
                "gc",
                "reclaim",
                t,
                pba=victim_pba,
                migrated=outcome.migrated_valid,
                expired=outcome.discarded_expired,
                compressed=outcome.compressed,
            )
        return outcome

    # --- Retained-version compression (Algorithm 1, lines 19-25) --------------

    @atomic_section(
        "chain walk + delta append + newest-first relink + reclaimable "
        "marking are one compression step: a request served mid-step "
        "could retrieve a version whose delta record exists but is not "
        "yet linked into the chain",
        # Sources are marked reclaimable only after their deltas are
        # linked and buffered, so a mid-step failure leaves every
        # version still retrievable from its original flash page.
        restores_state=True,
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
        index = ssd.index
        t = now_us

        head = ssd.read_page_with_retry(ppa, t)
        t = head.complete_us
        lpa = head.oob.lpa

        chain = [(ppa, head.oob, head.data)]
        t = self._collect_older_versions(lpa, head.oob, chain, t)

        compressing = ssd.config.delta_compression
        if compressing:
            ref_data, ref_ts, t = self._read_reference(lpa, t)
        else:
            ref_data, ref_ts = None, NO_REF_TS

        previous_head = index.prune_dropped_head(lpa)
        records = []
        for src_ppa, oob, data in chain:
            if oob.timestamp_us == ref_ts:
                # A refresh-migration duplicate of the reference head:
                # the same version, already retrievable as the current
                # data page.  A delta record for it would reference
                # itself (version_ts == ref_ts) and become unresolvable
                # once the data pages are reclaimed — drop the page,
                # keep no record.
                continue
            if compressing:
                payload, size = ssd.deltas.codec.compress(data, ref_data)
                device.counters.delta_compressions += 1
                ssd._m_delta_compressions.inc()
                t = device.timelines.schedule(
                    device.geometry.channel_of_page(src_ppa),
                    t,
                    device.timing.delta_compress_us,
                )
            else:
                # Ablation mode: retained versions move uncompressed.
                payload, size = data, device.geometry.page_size
            payload = ssd.seal_retained_payload(payload, lpa, oob.timestamp_us)
            segment = ssd.blooms.find_segment(src_ppa)
            if segment is None:
                # BF false negative cannot happen; this is the rare case of
                # a chain page racing expiration mid-walk.  Retain it with
                # the newest segment so no version silently disappears.
                segment = ssd.blooms.live_segments()[-1]
            records.append(
                DeltaRecord(
                    lpa=lpa,
                    version_ts=oob.timestamp_us,
                    ref_ts=ref_ts,
                    payload=payload,
                    size_bytes=size,
                    segment_id=segment.segment_id,
                    compressed=compressing,
                )
            )
        # Newest-first linking, merged with the pre-existing delta chain.
        # A plain prepend would assume every new record is newer than the
        # old head, but orphaned chain fragments (back-pointers broken by
        # GC page reuse) can be compressed after younger versions were —
        # the merge keeps the chain strictly newest-first regardless.
        previous = []
        tail = previous_head
        while tail is not None and not tail.dropped:
            previous.append(tail)
            tail = tail.back
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
        if merged:  # empty when the whole chain was head duplicates
            for newer, older in zip(merged, merged[1:]):
                newer.back = older
            merged[-1].back = tail
            index.set_delta_head(lpa, merged[0])
        for record in records:
            t = ssd.deltas.add_record(record, t)
        for src_ppa, _oob, _data in chain:
            if index.mark_reclaimable(src_ppa):
                ssd.note_page_no_longer_retained(src_ppa)
        ssd._h_compressed_chain.record(len(records))
        return t, len(records)

    def _collect_older_versions(self, lpa, head_oob, chain, now_us):
        """Walk the back-pointer chain below the page being compressed.

        Unexpired, not-yet-compressed versions join ``chain``; expired
        ones are marked reclaimable and end the walk (invalidation times
        decrease down the chain, so everything older is expired too).
        """
        ssd = self._ssd
        index = ssd.index
        t = now_us
        prev_ts = head_oob.timestamp_us
        back = head_oob.back_pointer
        while back != NULL_PPA and index._page_holds_version(back, lpa, prev_ts):
            if index.is_reclaimable(back):
                break  # older suffix already lives in the delta chain
            result = ssd.read_page_with_retry(back, t)
            t = result.complete_us
            if ssd.blooms.find_segment(back) is None:
                ssd.expire_page(back)
                break
            chain.append((back, result.oob, result.data))
            prev_ts = result.oob.timestamp_us
            back = result.oob.back_pointer
        return t

    def _read_reference(self, lpa, now_us):
        """Read the latest (valid) version as the compression reference."""
        ssd = self._ssd
        head_ppa = ssd.mapping.lookup(lpa)
        if head_ppa == NULL_PPA:
            return None, NO_REF_TS, now_us
        result = ssd.read_page_with_retry(head_ppa, now_us)
        return result.data, result.oob.timestamp_us, result.complete_us
