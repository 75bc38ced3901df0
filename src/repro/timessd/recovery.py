"""Power-loss recovery: rebuild firmware RAM state from flash.

Everything in Figure 3 lives in controller RAM — the AMT cache, BST,
PVT, IMT, PRT, bloom filters and delta buffers.  After power loss a real
FTL reconstructs its tables by scanning the out-of-band metadata, which
is exactly why TimeSSD stores (LPA, back-pointer, timestamp) in OOB.

:func:`simulate_power_loss` wipes the volatile state via
:meth:`TimeSSD.reset_volatile` (including the RAM delta buffers — real
firmware would flush those with capacitor-backed power; we model the
conservative worst case where they are lost);
:func:`rebuild_from_flash` reconstructs, on top of the shared OOB sweep
(:mod:`repro.ftl.recovery_scan`: torn-page discard, failed-block
retirement, partial/translation-block handling, checkpoint summaries):

* AMT + PVT — the newest *intact* OOB timestamp per LPA wins the
  mapping; pages whose OOB sequence tag mismatches (torn or failed
  programs the cut interrupted) are discarded, never mapped;
* block states and the free pool — from device write pointers; grown
  bad blocks (the ``failed`` column, media truth) are retired on sight;
* the append points — partially-programmed data blocks are re-adopted
  as the user stream's active blocks (one per channel); orphans are
  force-sealed so GC can reclaim them;
* the PRT — invalid pages whose (LPA, timestamp) already exist as a
  delta record are reclaimable;
* the IMT — delta chains relinked from the records found in delta
  pages, newest-first;
* the bloom chain — one conservative recovery segment retaining every
  surviving invalid page (nothing expires before the floor re-elapses,
  which errs on the safe side); recovered delta blocks are re-homed
  under the recovery segment so their wholesale erase still happens
  when it expires.
"""

from collections import defaultdict

from repro.ftl.block_manager import BlockKind, StreamId
from repro.ftl.recovery_scan import sweep_oob
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.timessd.delta import DeltaPage


def simulate_power_loss(ssd):
    """Drop every volatile structure, as an abrupt power cut would.

    The flash array (page contents, OOB, write pointers, erase counts,
    grown bad blocks) survives; every RAM table is reset through the
    device's own :meth:`reset_volatile`.  The device is unusable until
    :func:`rebuild_from_flash` runs.
    """
    ssd.reset_volatile()
    return ssd


def rebuild_from_flash(ssd):
    """Reconstruct the firmware tables by scanning OOB metadata.

    Returns a dict of recovery statistics.
    """
    device = ssd.device
    geo = device.geometry
    bm = ssd.block_manager

    sweep = sweep_oob(ssd, collect_housekeeping=True)
    heads = sweep.heads

    # Delta pages announce themselves with the DELTA_TAG housekeeping
    # OOB tag; their page data objects hold the records.
    delta_records = []
    delta_blocks = set()
    data = device.core.data
    for pba, ppa, lpa_tag, _ts in sweep.housekeeping:
        if lpa_tag != OOBMetadata.DELTA_TAG:
            continue
        payload = data[ppa]
        if not isinstance(payload, DeltaPage):
            continue
        delta_blocks.add(pba)
        delta_records.extend(r for r in payload.records if not r.dropped)

    # Delta chains: group, order newest-first, relink, and re-home every
    # record (and every recovered delta block) into one conservative
    # recovery segment.
    recovery_segment = ssd.blooms.live_segments()[-1]
    for pba in delta_blocks:
        bm.set_kind(pba, BlockKind.DELTA)
        ssd.deltas.adopt_block(recovery_segment.segment_id, pba)

    # Append points: partially-programmed data blocks become the user
    # stream's active blocks again (one per channel); leftovers are
    # sealed so GC treats them as reclaimable victims, not free space.
    for pba in sweep.partial_blocks:
        if pba in delta_blocks:
            continue  # delta appends reopen lazily via their stream key
        if not bm.adopt_active(StreamId.USER, pba):
            bm.seal_block(pba)

    by_lpa = defaultdict(list)
    for record in delta_records:
        record.segment_id = recovery_segment.segment_id
        by_lpa[record.lpa].append(record)

    # A head older than the LPA's delta history means the LPA was
    # trimmed before the crash and its whole live chain was compressed
    # and erased: the surviving data page is a stale pre-trim version.
    # Mapping it would resurrect old data *as current* and corrupt the
    # chain order; leave the LPA unmapped (trim durability across power
    # loss is advisory, as on real drives).
    for lpa, records in by_lpa.items():
        head = heads.get(lpa)
        if head is not None and head[0] <= max(r.version_ts for r in records):
            del heads[lpa]

    # AMT + PVT: the newest version of each LPA is the live mapping.
    for lpa, (_ts, ppa) in heads.items():
        ssd.mapping.update(lpa, ppa)
        bm.mark_valid(ppa)
    delta_identities = set()
    newest_delta_ts = {}
    unresolvable = 0
    for lpa, records in by_lpa.items():
        records.sort(key=lambda r: -r.version_ts)
        # A compressed delta decompresses against its reference version
        # (the head at compression time).  If that reference survives
        # only in a lost RAM delta buffer, the record is garbage — prune
        # it so queries cannot hit an unresolvable delta.  Walking
        # newest-first, a kept record's own version can serve as a later
        # record's reference, exactly as in version_chain.
        resolvable = _reachable_data_ts(ssd, lpa, heads.get(lpa))
        kept = []
        for record in records:
            if (
                record.compressed
                and record.ref_ts >= 0
                and record.ref_ts not in resolvable
            ):
                unresolvable += 1
                continue
            kept.append(record)
            resolvable.add(record.version_ts)
            delta_identities.add((record.lpa, record.version_ts))
        if not kept:
            continue
        for newer, older in zip(kept, kept[1:]):
            newer.back = older
        kept[-1].back = None
        ssd.index.set_delta_head(lpa, kept[0])
        newest_delta_ts[lpa] = kept[0].version_ts

    # Retained invalid pages: everything programmed but not a head.
    retained = 0
    reclaimable = 0
    for ppa, lpa, ts in sweep.user_pages:
        head = heads.get(lpa, (None, None))
        if head[1] == ppa:
            continue
        if ts == head[0]:
            # Byte-identical duplicate of the mapped head, left behind by
            # a scrub/GC refresh migration the cut interrupted between
            # the new copy's program and the (volatile) PRT mark.  It is
            # the *same* version, not an older one — retaining it would
            # later compress into a self-referential delta record.
            ssd.index.mark_reclaimable(ppa)
            reclaimable += 1
            continue
        if (lpa, ts) in delta_identities:
            # Already preserved as a delta: the data page is redundant.
            ssd.index.mark_reclaimable(ppa)
            reclaimable += 1
            continue
        if ts <= newest_delta_ts.get(lpa, -1):
            # Older than the LPA's recovered delta chain: retaining it
            # would make a later GC compression prepend an out-of-order
            # record (deltas link newest-first).  The chain invariant
            # wins; the stale version is given up.
            ssd.index.mark_reclaimable(ppa)
            reclaimable += 1
            continue
        ssd.blooms.record_invalidation(ppa)
        pba = geo.block_of_page(ppa)
        ssd._retained_per_block[pba] += 1
        ssd.retained_pages += 1
        retained += 1

    if ssd.checkpointer is not None:
        ssd.checkpointer.adopt(sweep.translation_blocks, sweep.checkpoint_seq)

    return {
        "mapped_lpas": len(heads),
        "retained_pages": retained,
        "reclaimable_pages": reclaimable,
        "delta_records": len(delta_records),
        "delta_blocks": len(delta_blocks),
        "free_blocks": bm.free_block_count,
        "torn_pages": sweep.torn_pages,
        "failed_blocks": sweep.failed_blocks,
        "unresolvable_deltas": unresolvable,
        "scanned_blocks": sweep.scanned_blocks,
        "summarized_blocks": sweep.summarized_blocks,
        "checkpoint_seq": sweep.checkpoint_seq,
    }


def _reachable_data_ts(ssd, lpa, head):
    """Timestamps of the data-page versions a chain walk can reach.

    Mirrors :meth:`TimeTravelIndex.walk_data_chain` (same hop checks,
    no timing): these are the versions available as delta references.
    """
    out = set()
    if head is None:
        return out
    core = ssd.device.core
    _ts, ppa = head
    ssd.device.geometry.check_ppa(ppa)
    if not core.state[ppa]:
        return out
    # Every later hop was just validated from the same columns by
    # ``_page_holds_version``: read them directly, no page views.
    timestamp_us = core.timestamp_us
    back_pointer = core.back_pointer
    prev_ts = timestamp_us[ppa]
    out.add(prev_ts)
    back = back_pointer[ppa]
    while back != NULL_PPA and ssd.index._page_holds_version(back, lpa, prev_ts):
        prev_ts = timestamp_us[back]
        out.add(prev_ts)
        back = back_pointer[back]
    return out
