"""The shared OOB recovery sweep used by both rebuild paths.

``repro.ftl.recovery`` and ``repro.timessd.recovery`` used to carry
copy-pasted block/page scan loops (torn-page discard, failed-block
retirement, partial-block collection) that could — and did — drift.
This module is the single implementation, rewritten against the
columnar :meth:`~repro.flash.device.FlashDevice.scan_oob` sweep instead
of per-page ``Page`` objects, and extended with checkpoint summaries
(:mod:`repro.ftl.checkpoint`): a block whose checkpointed summary still
matches the media (same erase count, still full, not failed) is adopted
from the summary without scanning its pages, which is what makes
recovery sublinear in device size.

The sweep owns exactly the semantics the two recoveries share:

* grown-bad blocks (``failed`` — media truth) are retired on sight;
* erased blocks stay in the free pool;
* occupied blocks are claimed; translation (checkpoint) blocks are
  claimed under their own kind and sealed when partial, never adopted
  as user append points;
* torn/burned pages (sequence-tag mismatch) are discarded, never
  reported;
* intact user pages feed the newest-timestamp-wins ``heads`` map, the
  flat ``user_pages`` list and the ``committed`` column;
* intact housekeeping pages (negative LPA tags: delta pages,
  translation pages in unrecognized blocks) are collected with their
  tag for the caller to classify;
* partially-programmed non-translation blocks are collected for the
  caller's append-point adoption.

What the sweep deliberately does *not* do: adopt append points, set
delta-block kinds, or touch the mapping — those differ between the
regular FTL and TimeSSD and stay in their respective recovery modules.
"""

from repro.ftl import checkpoint as checkpointing
from repro.ftl.block_manager import BlockKind


class OOBSweep:
    """Result of one :func:`sweep_oob` pass."""

    __slots__ = (
        "heads",
        "user_pages",
        "committed",
        "housekeeping",
        "partial_blocks",
        "translation_blocks",
        "torn_pages",
        "failed_blocks",
        "scanned_blocks",
        "summarized_blocks",
        "checkpoint_seq",
    )

    def __init__(self, total_pages):
        #: ``{lpa: (timestamp_us, ppa)}`` — newest intact version wins.
        self.heads = {}
        #: Every intact user page: ``(ppa, lpa, timestamp_us)``.
        self.user_pages = []
        #: One byte per PPA, 1 for exactly the pages in ``user_pages``:
        #: their seal was verified by this sweep (scanned blocks) or is
        #: vouched for by a still-matching checkpoint summary.  A positive
        #: cache for the caller's chain walks, never an authority — a page
        #: reading 0 here (torn, housekeeping, or in a retired block the
        #: sweep skipped) still needs ``core.intact_at``.
        self.committed = bytearray(total_pages)
        #: Intact housekeeping pages: ``(pba, ppa, lpa_tag, timestamp_us)``.
        self.housekeeping = []
        #: Partially-programmed non-translation blocks, scan order.
        self.partial_blocks = []
        #: Blocks recognized as checkpoint storage.
        self.translation_blocks = set()
        self.torn_pages = 0
        self.failed_blocks = 0
        #: Blocks whose pages were actually swept.
        self.scanned_blocks = 0
        #: Blocks adopted from the checkpoint without a page sweep.
        self.summarized_blocks = 0
        #: Sequence number of the checkpoint used (None = full scan).
        self.checkpoint_seq = None


def sweep_oob(ssd, collect_housekeeping=False):
    """Sweep the device's OOB metadata into an :class:`OOBSweep`.

    ``collect_housekeeping`` additionally gathers intact negative-tag
    pages (TimeSSD classifies delta pages from them; the regular FTL
    skips them entirely).
    """
    device = ssd.device
    geo = device.geometry
    core = device.core
    bm = ssd.block_manager
    ppb = geo.pages_per_block
    sweep = OOBSweep(geo.total_pages)

    translation_blocks = checkpointing.find_translation_blocks(device)
    image = (
        checkpointing.load_latest_checkpoint(device, translation_blocks)
        if translation_blocks
        else None
    )
    sweep.translation_blocks = translation_blocks
    if image is not None:
        sweep.checkpoint_seq = image.seq

    # Pass 1, block order: settle every block's place in the (fresh)
    # block manager and decide who vouches for its pages — a checkpoint
    # summary, or a scan.  The scans are then taken in one batch.
    occupied = []  # (pba, summary or None), block order
    to_scan = []
    failed = core.failed
    write_pointer = core.write_pointer
    for pba in range(geo.total_blocks):
        if failed[pba]:
            # Grown bad block: the media remembers even though the fresh
            # BST does not.  Take it out of service; any versions it held
            # are gone (matching a real drive's data loss on bad blocks).
            bm.retire_failed_block(pba)
            sweep.failed_blocks += 1
            continue
        wp = write_pointer[pba]
        if wp == 0:
            continue
        # Occupied blocks must leave the (fresh) free pool.
        bm.claim_block(pba)
        if pba in translation_blocks:
            # Checkpoint storage: already parsed by the loader above.
            # Never a user append point — sealed if partial; the writer
            # reopens fresh translation blocks lazily.
            bm.set_kind(pba, BlockKind.TRANSLATION)
            if wp < ppb:
                bm.seal_block(pba)
            continue
        if wp < ppb:
            sweep.partial_blocks.append(pba)
        summary = checkpointing.summary_for(image, core, pba, ppb)
        occupied.append((pba, summary))
        if summary is None:
            to_scan.append(pba)
    sweep.scanned_blocks = len(to_scan)
    sweep.summarized_blocks = len(occupied) - len(to_scan)

    # Pass 2, the same block order (so ``heads``, ``user_pages`` and
    # ``housekeeping`` fill exactly as a block-at-a-time sweep fills
    # them): reduce every vouched-for page into the result.
    scans = device.scan_oob(to_scan)
    heads = sweep.heads
    user_pages = sweep.user_pages
    committed = sweep.committed
    housekeeping = sweep.housekeeping
    for pba, summary in occupied:
        first = pba * ppb
        if summary is not None:
            sweep.torn_pages += summary.torn_pages
            for offset, lpa, ts in summary.entries:
                ppa = first + offset
                user_pages.append((ppa, lpa, ts))
                committed[ppa] = 1
                best = heads.get(lpa)
                if best is None or ts > best[0]:
                    heads[lpa] = (ts, ppa)
            continue
        scan = next(scans)
        states = scan.state
        columns = zip(scan.intact, scan.lpa, scan.timestamp_us)
        for ppa, (ok, lpa, ts) in enumerate(columns, first):
            if not ok:
                # Torn tail of the interrupted program (or a burned
                # page): the sequence tag mismatch proves it never
                # committed, so it must not corrupt the rebuilt tables.
                # (An erased hole below the write pointer is not torn.)
                if states[ppa - first]:
                    sweep.torn_pages += 1
                continue
            if lpa < 0:
                if collect_housekeeping:
                    housekeeping.append((pba, ppa, lpa, ts))
                continue
            user_pages.append((ppa, lpa, ts))
            committed[ppa] = 1
            best = heads.get(lpa)
            if best is None or ts > best[0]:
                heads[lpa] = (ts, ppa)
    return sweep
