"""Power-loss recovery for the baseline (regular) SSD.

The regular FTL keeps only the AMT, BST and PVT in RAM; after an abrupt
power cut it reconstructs them from the shared OOB sweep
(:mod:`repro.ftl.recovery_scan` — the same block/page semantics as
:mod:`repro.timessd.recovery`, minus every retention structure):

* AMT + PVT — the newest *intact* OOB timestamp per LPA wins the
  mapping; pages whose OOB sequence tag mismatches (torn or burned
  programs) are discarded, never mapped;
* block states and the free pool — from device write pointers; a block
  out of service (grown bad or worn out: ``BlockManager.in_service``)
  that holds no mapped page is retired, one that still does stays for
  GC to empty;
* append points — partially-programmed blocks are re-adopted as the
  user stream's active blocks (one per channel); orphans are
  force-sealed so GC can reclaim, not append to, them.

With checkpointing enabled (``SSDConfig.checkpoint_interval_blocks``)
the sweep adopts still-valid block summaries from the newest durable
checkpoint and scans only blocks sealed (or reused) since — recovery
becomes sublinear in device size; the stats report the split.

Use with :meth:`~repro.ftl.ssd.BaseSSD.reset_volatile`::

    ssd.reset_volatile()
    stats = rebuild_from_flash(ssd)
"""

from repro.ftl.block_manager import StreamId
from repro.ftl.recovery_scan import sweep_oob


def simulate_power_loss(ssd):
    """Drop every volatile structure, as an abrupt power cut would."""
    ssd.reset_volatile()
    return ssd


def rebuild_from_flash(ssd):
    """Reconstruct the baseline FTL's tables by scanning OOB metadata.

    Returns a dict of recovery statistics.
    """
    bm = ssd.block_manager
    sweep = sweep_oob(ssd)

    for pba in sweep.partial_blocks:
        if not bm.adopt_active(StreamId.USER, pba):
            bm.seal_block(pba)

    ssd.load_mapping(sweep.head_ppa)

    if ssd.checkpointer is not None:
        ssd.checkpointer.adopt(sweep.translation_blocks, sweep.checkpoint_seq)

    return {
        "mapped_lpas": ssd.mapping.mapped_count(),
        "user_pages": len(sweep.user_pages[0]),
        "free_blocks": bm.free_block_count,
        "torn_pages": sweep.torn_pages,
        "retired_blocks": bm.retired_blocks,
        "scanned_blocks": sweep.scanned_blocks,
        "summarized_blocks": sweep.summarized_blocks,
        "checkpoint_seq": sweep.checkpoint_seq,
    }
