"""The one OOB recovery sweep under both rebuild paths
(``repro.ftl.recovery`` and ``repro.timessd.recovery``), over the
columnar :meth:`~repro.flash.device.FlashDevice.scan_oob` sweep and
checkpoint summaries (:mod:`repro.ftl.checkpoint`): a block whose
checkpointed summary still matches the media (same erase count, still
full, not failed) is adopted from the summary without scanning its
pages, which is what makes recovery sublinear in device size.

The sweep owns exactly the semantics the two recoveries share:

* erased blocks stay in the free pool;
* a block out of service (``BlockManager.in_service``, the one
  retirement rule: grown bad or worn out) is swept like any other once
  the rest are; if it holds a head it stays, for GC to empty, and if
  not it is retired through ``release_block`` and its pages go
  unreported;
* occupied blocks are claimed; translation (checkpoint) blocks are
  claimed under their own kind and sealed when partial, never adopted
  as user append points;
* torn/burned pages (sequence-tag mismatch) are discarded, never
  reported;
* intact user pages feed the two LPA-indexed head columns,
  ``head_ts`` and ``head_ppa`` (the newest stamp wins; of two versions
  with one stamp, the first swept — so a GC copy on healthy media beats
  its original in a block out of service, which is swept last), the
  three ``user_pages`` columns and the ``committed`` column, a block's
  columns at a time (a scanned block is reduced to what a checkpoint
  summary caches).  ``head_ppa`` *is* the L2P the mount loads; an
  intact user page naming an LPA past the device's logical space raises
  :class:`AddressError` before any table is loaded;
* intact housekeeping pages (negative LPA tags: delta pages,
  translation pages in unrecognized blocks) are collected with their
  tag for the caller to classify;
* partially-programmed non-translation blocks in service are collected
  for the caller's append-point adoption.

What the sweep deliberately does *not* do: adopt append points, set
delta-block kinds, or touch the mapping — those differ between the
regular FTL and TimeSSD and stay in their respective recovery modules.
"""

from itertools import compress

from repro.common.errors import AddressError
from repro.flash.page import NULL_PPA
from repro.ftl import checkpoint as checkpointing
from repro.ftl.block_manager import BlockKind


class OOBSweep:
    """Result of one :func:`sweep_oob` pass."""

    __slots__ = (
        "head_ts",
        "head_ppa",
        "user_pages",
        "committed",
        "housekeeping",
        "partial_blocks",
        "translation_blocks",
        "torn_pages",
        "scanned_blocks",
        "summarized_blocks",
        "checkpoint_seq",
    )

    def __init__(self, total_pages, logical_pages):
        #: Per LPA, the newest intact version's stamp (-1: none) and PPA
        #: (``NULL_PPA``: none) — the newest stamp wins, and of two
        #: versions with one stamp the first swept.
        self.head_ts = [-1] * logical_pages
        self.head_ppa = [NULL_PPA] * logical_pages
        #: Every intact user page, sweep order, as three parallel int
        #: columns: ``(ppa, lpa, timestamp_us)``.
        self.user_pages = ([], [], [])
        #: One byte per PPA, 1 for exactly the pages in ``user_pages``:
        #: their seal was verified by this sweep (scanned blocks) or is
        #: vouched for by a still-matching checkpoint summary.  A positive
        #: cache for the caller's chain walks, never an authority — a page
        #: reading 0 here (torn, housekeeping, or in a block the mount
        #: retired) still needs ``core.intact_at``.
        self.committed = bytearray(total_pages)
        #: Intact housekeeping pages: ``(pba, ppa, lpa_tag, timestamp_us)``.
        self.housekeeping = []
        #: Partially-programmed non-translation blocks in service, scan
        #: order.
        self.partial_blocks = []
        #: Blocks recognized as checkpoint storage.
        self.translation_blocks = set()
        self.torn_pages = 0
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
    logical_pages = ssd.logical_pages
    sweep = OOBSweep(geo.total_pages, logical_pages)

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
    # summary, or a scan.  The scans are then taken in one batch.  A
    # block out of service (``BlockManager.in_service``: grown bad or
    # worn out) is never an append point and is always scanned, after
    # the rest: a GC copy on healthy media then wins the head over its
    # same-stamp original in a victim whose erase failed.
    occupied = []  # (pba, summary or None): block order, condemned last
    condemned = []
    write_pointer = core.write_pointer
    for pba in range(geo.total_blocks):
        in_service = bm.in_service(pba)
        if not in_service:
            condemned.append(pba)
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
        elif in_service:
            if wp < ppb:
                sweep.partial_blocks.append(pba)
            occupied.append((pba, checkpointing.summary_for(image, core, pba, ppb)))
    occupied += [
        (pba, None)
        for pba in condemned
        if write_pointer[pba] and pba not in translation_blocks
    ]
    to_scan = [pba for pba, summary in occupied if summary is None]
    sweep.scanned_blocks = len(to_scan)
    sweep.summarized_blocks = len(occupied) - len(to_scan)

    # Pass 2, the same order (so the heads, the user columns and
    # ``housekeeping`` fill exactly as a block-at-a-time sweep fills
    # them): take each block's columns whole — its summary's, or its
    # scan reduced to one.  A head column indexed past its end is a page
    # naming an LPA the device does not have.
    scans = device.scan_oob(to_scan)
    head_ts = sweep.head_ts
    head_ppa = sweep.head_ppa
    user_ppa, user_lpa, user_ts = sweep.user_pages
    committed = sweep.committed
    housekeeping = sweep.housekeeping if collect_housekeeping else []
    try:
        for pba, summary in occupied:
            first = pba * ppb
            if summary is None:
                summary = checkpointing.BlockSummary.of_scan(
                    next(scans), first, housekeeping
                )
            sweep.torn_pages += summary.torn_pages
            ppas, lpas, stamps = summary.ppa, summary.lpa, summary.timestamp_us
            user_ppa += ppas
            user_lpa += lpas
            user_ts += stamps
            committed[first:first + len(summary.committed)] = summary.committed
            for ppa, lpa, ts in zip(ppas, lpas, stamps):
                if ts > head_ts[lpa]:
                    head_ts[lpa] = ts
                    head_ppa[lpa] = ppa
    except IndexError:
        raise AddressError(
            "page %d maps LPA %r, out of range [0, %d)" % (ppa, lpa, logical_pages)
        ) from None
    if not condemned:
        return sweep

    # Once the heads are known: a block out of service that holds one
    # stays a DATA block, for GC (or scrub) to empty and retire as on
    # the live device; one that holds none leaves service now, through
    # ``release_block`` as after an erase, and its pages go unreported —
    # its stale history is lost, as a reclaim would lose it.
    gone = set(condemned) - {ppa // ppb for ppa in head_ppa if ppa != NULL_PPA}
    for pba in sorted(gone):
        bm.claim_block(pba)  # an erased block is still in the fresh pool
        bm.release_block(pba)
        committed[pba * ppb:(pba + 1) * ppb] = bytes(ppb)
    sweep.translation_blocks -= gone
    kept = [ppa // ppb not in gone for ppa in user_ppa]
    sweep.user_pages = tuple(
        list(compress(column, kept)) for column in sweep.user_pages
    )
    sweep.housekeeping = [page for page in housekeeping if page[0] not in gone]
    return sweep
