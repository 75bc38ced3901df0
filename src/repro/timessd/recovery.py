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
(:mod:`repro.ftl.recovery_scan`: torn-page discard, the mount's half
of the retirement rule, partial/translation-block handling, checkpoint
summaries):

* AMT + PVT — the newest *intact* OOB timestamp per LPA wins the
  mapping; pages whose OOB sequence tag mismatches (torn or failed
  programs the cut interrupted) are discarded, never mapped;
* block states and the free pool — from device write pointers; a block
  out of service (grown bad or worn out: ``BlockManager.in_service``)
  that holds no mapped page is retired, one that still does stays for
  GC to empty;
* the append points — partially-programmed data blocks are re-adopted
  as the user stream's active blocks (one per channel); orphans are
  force-sealed so GC can reclaim them;
* the PRT — invalid pages whose (LPA, timestamp) already exist as a
  delta record are reclaimable;
* the IMT — delta chains relinked from the records found in delta
  pages, newest-first; a flushed TRIM tombstone newer than the LPA's
  newest data page leaves the LPA unmapped (an acked TRIM survives the
  cut once its delta page is programmed; before that it is advisory);
* the bloom chain — conservative recovery segments, all created at
  rebuild time, retaining every surviving invalid page (nothing expires
  before the floor re-elapses, which errs on the safe side).  The pages
  go in through the ordinary recording path, so a filter that fills up
  rolls over and a rebuild can open several segments; recovered delta
  records and delta blocks are re-homed under the first of them, so
  their wholesale erase still happens when it expires.
"""

import math
from collections import defaultdict
from operator import attrgetter

from repro.ftl.block_manager import BlockKind, StreamId
from repro.ftl.recovery_scan import sweep_oob
from repro.flash.page import OOBMetadata
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
    ppb = device.geometry.pages_per_block
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
        delta_records += [r for r in payload.records if not r.dropped]

    # Delta chains: group, order newest-first, relink, and re-home every
    # record (and every recovered delta block) under the segment that is
    # active when the rebuild starts — the first recovery segment.
    recovery_segment = ssd.blooms.live_segments()[-1]
    for pba in delta_blocks:
        bm.set_kind(pba, BlockKind.DELTA)
        ssd.deltas.adopt_block(recovery_segment.segment_id, pba)

    # Append points: partially-programmed data blocks become the user
    # stream's active blocks again (one per channel); leftovers are
    # sealed so GC treats them as reclaimable victims, not free space.
    # The recovery segment's delta stream resumes in one partial delta
    # block, so the history recovered with it fills that block first.
    delta_key = ("delta", recovery_segment.segment_id)
    for pba in sweep.partial_blocks:
        if pba in delta_blocks:
            bm.adopt_active(delta_key, pba, striped=False)
        elif not bm.adopt_active(StreamId.USER, pba):
            bm.seal_block(pba)

    by_lpa = defaultdict(list)
    for record in delta_records:
        record.segment_id = recovery_segment.segment_id
        by_lpa[record.lpa].append(record)

    committed = sweep.committed
    newest_delta_ts = {}  # an LPA with no kept tombstone: one generation
    generations_by_lpa = {}
    unresolvable = 0
    for lpa, records in by_lpa.items():
        records.sort(key=attrgetter("version_ts"), reverse=True)
        # A flushed tombstone newer than the LPA's newest data page: the
        # TRIM was the LPA's last event, and that page is the version it
        # deleted (or an older one) — leave the LPA unmapped.
        head = heads.get(lpa)
        if (
            head is not None
            and records[0].data_back is not None
            and records[0].version_ts > head[0]
        ):
            del heads[lpa]
            head = None
        # A compressed delta decompresses against its reference version
        # (the head at compression time).  If that reference survives
        # only in a lost RAM delta buffer, the record is garbage — prune
        # it so queries cannot hit an unresolvable delta.  Walking
        # newest-first, a kept record's own version can serve as a later
        # record's reference, and so can a kept tombstone's deleted
        # data-page versions, exactly as in version_chain.  Data pages no
        # newer than the newest kept payload record of their generation
        # are PRT-marked below, out of the walk's reach: only newer
        # reachable versions are references.
        resolvable = _reachable_data_ts(
            ssd, lpa, None if head is None else head[1], committed
        )
        # One [stamp above, newest payload ts] pair per generation, newest
        # first: the mapped one under no tombstone, then one per kept
        # tombstone, whose payload records lie between it and the next.
        generations = [[math.inf, -1]]
        kept = []
        for record in records:
            if not kept:
                resolvable = {ts for ts in resolvable if ts > record.version_ts}
            if (
                record.compressed
                and record.ref_ts >= 0
                and record.ref_ts not in resolvable
            ):
                unresolvable += 1
                continue
            kept.append(record)
            if record.data_back is None:
                resolvable.add(record.version_ts)
                if generations[-1][1] < 0:
                    generations[-1][1] = record.version_ts
            else:
                generations.append([record.version_ts, -1])
                resolvable |= _reachable_data_ts(
                    ssd, lpa, record.data_back, committed, record.version_ts
                )
        if not kept:
            continue
        for newer, older in zip(kept, kept[1:]):
            newer.back = older
        kept[-1].back = None
        ssd.index.set_delta_head(lpa, kept[0])
        if len(generations) == 1:
            newest_delta_ts[lpa] = generations[0][1]
        else:
            generations_by_lpa[lpa] = generations

    # AMT + PVT: the newest version of each LPA is the live mapping.
    ssd.load_mapping(heads)

    # Retained invalid pages: everything programmed but not a head.
    reclaimable = bm.reclaimable
    retained = []
    for ppa, lpa, ts in sweep.user_pages:
        head_ts, head_ppa = heads.get(lpa, (None, None))
        if ppa == head_ppa:
            continue
        if ts == head_ts:
            # Byte-identical duplicate of the mapped head, left behind by
            # a scrub/GC refresh migration the cut interrupted between
            # the new copy's program and the (volatile) PRT mark.  It is
            # the *same* version, not an older one — retaining it would
            # later compress into a self-referential delta record.
            reclaimable[ppa] = 1
        elif ts <= newest_delta_ts.get(lpa, -1) or (
            lpa in generations_by_lpa
            and ts <= _newest_payload_ts(generations_by_lpa[lpa], ts)
        ):
            # Not newer than the newest recovered payload record of its
            # generation.  Either the version is already preserved as one
            # of its records (the data page is redundant), or retaining it
            # would make a later GC compression prepend an out-of-order
            # record (deltas link newest-first): the chain invariant wins
            # and the stale version is given up.  A tombstone bounds the
            # comparison: the deleted versions it hands the walk to are
            # older than every record of a later generation, and stay
            # retained.
            reclaimable[ppa] = 1
        else:
            retained.append(ppa)
    ssd.blooms.record_invalidations(retained)
    retained_per_block = ssd._retained_per_block
    for ppa in retained:
        retained_per_block[ppa // ppb] += 1
    ssd.retained_pages += len(retained)

    if ssd.checkpointer is not None:
        ssd.checkpointer.adopt(sweep.translation_blocks, sweep.checkpoint_seq)

    return {
        "mapped_lpas": len(heads),
        "retained_pages": len(retained),
        "reclaimable_pages": reclaimable.count(1),
        "delta_records": len(delta_records),
        "delta_blocks": len(delta_blocks),
        "free_blocks": bm.free_block_count,
        "torn_pages": sweep.torn_pages,
        "retired_blocks": bm.retired_blocks,
        "unresolvable_deltas": unresolvable,
        "scanned_blocks": sweep.scanned_blocks,
        "summarized_blocks": sweep.summarized_blocks,
        "checkpoint_seq": sweep.checkpoint_seq,
    }


def _newest_payload_ts(generations, ts):
    """The newest payload record stamp (-1: none) of the generation a
    data page stamped ``ts`` belongs to: the innermost one whose
    tombstone above is newer than the page.  ``generations`` holds
    ``[stamp above, newest payload ts]`` pairs, newest first."""
    newest = -1
    for above, payload_ts in generations:
        if above <= ts:
            break
        newest = payload_ts
    return newest


def _reachable_data_ts(ssd, lpa, back, committed, newer_ts=math.inf):
    """Timestamps of the data-page versions a chain walk can reach from
    ``back`` (a head, or a tombstone's ``data_back`` below its stamp
    ``newer_ts``; None reaches nothing).

    Every hop :meth:`TimeTravelIndex.older_versions` takes from there
    down — the walk of ``walk_data_chain`` without its reads: these are
    the versions available as delta references.  ``committed`` is the
    sweep's column of pages whose seal is already verified; a hop it
    does not vouch for takes ``core.intact_at``.
    """
    if back is None:
        return set()
    timestamp_us = ssd.device.core.timestamp_us
    return {
        timestamp_us[ppa]
        for ppa in ssd.index.older_versions(lpa, back, newer_ts, committed)
    }
