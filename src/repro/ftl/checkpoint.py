"""Checkpointed recovery summaries: sublinear ``rebuild_from_flash``.

Without checkpoints, mount-time recovery sweeps the OOB metadata of
every programmed page — O(total pages), the paper's own worst case
(§3.7 rebuilds *all* tables from OOB).  Real FTLs bound that by
periodically persisting translation snapshots; this module does the
columnar-era equivalent: a **checkpoint** is a per-block *scan cache*
written to flash in dedicated translation blocks.

Format
------
A checkpoint with sequence number ``seq`` occupies ``parts + 1`` pages
in ``BlockKind.TRANSLATION`` blocks, all tagged
``OOBMetadata.TRANSLATION_TAG``:

* ``parts`` continuation pages carrying :class:`CheckpointPart` — they
  model the bulk of the serialized summary (the model stores objects,
  so only the root carries the real payload, but the flash footprint
  matches the serialized size);
* one root page carrying the :class:`CheckpointImage`, programmed
  **last** — the commit record.  A checkpoint is valid iff its root is
  intact and all ``parts`` continuation pages with the same ``seq``
  are intact; a power cut anywhere mid-checkpoint therefore leaves the
  previous checkpoint in force.

Each :class:`BlockSummary` caches one *sealed, full, data* block's scan
result, keyed by the block's media truth: its erase count.  A block's
page content is a pure function of ``(erase_count, write_pointer)`` —
NAND programs append-only at the write pointer and only erase resets it
— so at recovery a summary applies iff the block is still full, not
failed, and its erase count matches.  Anything else (erased and reused,
GC'd, grown bad, partially programmed) falls back to the columnar scan,
which makes checkpointed recovery *exactly equivalent* to a full sweep
— the checkpoint is an accelerator, never an authority.

Delta and translation blocks are never summarized: delta blocks carry
record payloads recovery must re-read anyway, and translation blocks
are the checkpoint's own storage.

Determinism: the writer runs from the host-request path on a pure
function of firmware state; recovery stays RNG-free (pinned by
``tests/timessd/test_power_loss.py``).
"""

from repro.common.atomic import atomic_section
from repro.common.errors import DeviceFullError, ProgramFailureError
from repro.flash.page import NULL_PPA, OOBMetadata, seq_tag_of
from repro.ftl.block_manager import BlockKind

#: Keyed append stream for checkpoint pages (unstriped: checkpoints are
#: sequential housekeeping writes, not latency-critical user traffic).
CHECKPOINT_STREAM = ("checkpoint",)

#: Modeled serialized size of one per-page summary entry and one block
#: header, used to compute the checkpoint's flash footprint.
_ENTRY_BYTES = 16
_BLOCK_HEADER_BYTES = 24
_ROOT_HEADER_BYTES = 64


class BlockSummary:
    """Cached scan of one sealed, full data block."""

    __slots__ = ("erase_count", "torn_pages", "entries")

    def __init__(self, erase_count, torn_pages, entries):
        self.erase_count = erase_count
        self.torn_pages = torn_pages
        #: Tuple of ``(offset, lpa, timestamp_us)`` for every intact
        #: user page in the block.
        self.entries = entries


class CheckpointPart:
    """Continuation page payload (serialized-summary overflow)."""

    __slots__ = ("seq", "index")

    def __init__(self, seq, index):
        self.seq = seq
        self.index = index


class CheckpointImage:
    """Root page payload: the summary map plus the commit metadata."""

    __slots__ = ("seq", "created_us", "parts", "summaries")

    def __init__(self, seq, created_us, parts, summaries):
        self.seq = seq
        self.created_us = created_us
        self.parts = parts
        #: ``{pba: BlockSummary}``
        self.summaries = summaries


class CheckpointWriter:
    """Periodic checkpoint emitter owned by one SSD.

    Triggered every ``checkpoint_interval_blocks`` blocks' worth of page
    programs (a deterministic O(1) trigger on the device's own program
    counter).  Summaries are cached between checkpoints keyed by erase
    count, so steady state re-scans only blocks sealed since the last
    checkpoint.
    """

    def __init__(self, ssd):
        self._ssd = ssd
        self.seq = 0
        self._programs_mark = 0
        #: Translation blocks this writer has ever appended into (plus
        #: any adopted from recovery) — the superseded-cleanup universe.
        self._blocks = set()
        #: ``{pba: BlockSummary}`` — reusable iff the erase count still
        #: matches (same immutability argument as at recovery).
        self._cache = {}
        metrics = ssd.obs.metrics
        self._m_written = metrics.counter("recovery.checkpoint.written")
        self._m_pages = metrics.counter("recovery.checkpoint.pages")
        self._m_blocks = metrics.counter("recovery.checkpoint.blocks_summarized")
        self._m_reused = metrics.counter("recovery.checkpoint.summaries_reused")
        self._m_superseded = metrics.counter("recovery.checkpoint.superseded_erased")
        self._m_aborted = metrics.counter("recovery.checkpoint.aborted")

    def adopt(self, translation_blocks, seq):
        """Re-home recovery's findings (post power cut).

        The writer's RAM state is volatile; recovery hands back the
        translation blocks it found and the newest valid sequence
        number so new checkpoints supersede, not collide with, the old.
        """
        self._blocks.update(translation_blocks)
        if seq is not None:
            self.seq = max(self.seq, seq)
        self._programs_mark = self._ssd.device.counters.page_programs

    def maybe_checkpoint(self, now_us):
        """Write a checkpoint if enough writes happened since the last."""
        ssd = self._ssd
        if ssd.degraded_reason is not None:
            return now_us  # read-only mode: no housekeeping writes
        interval = ssd.config.checkpoint_interval_blocks
        threshold = interval * ssd.device.geometry.pages_per_block
        if ssd.device.counters.page_programs - self._programs_mark < threshold:
            return now_us
        return self.write_checkpoint(now_us)

    @atomic_section(
        "summary build + part programs + root (commit) program + "
        "superseded-block erase are one checkpoint transaction: a scan "
        "interleaved between parts would adopt a checkpoint whose root "
        "is not yet durable",
        # The root page programs last, so an abort (device full, media
        # failure) leaves the previous checkpoint in force; orphaned part
        # pages are superseded garbage.
    )
    def write_checkpoint(self, now_us):
        """Emit one checkpoint; returns the time cursor afterwards.

        Aborts quietly (previous checkpoint stays in force) when the
        device cannot take the housekeeping writes right now.
        """
        ssd = self._ssd
        device = ssd.device
        geo = device.geometry
        # Re-arm the trigger first: an aborted attempt must not retry on
        # every subsequent host write while the pool is exhausted.
        self._programs_mark = device.counters.page_programs
        self.seq += 1
        summaries, reused = self._build_summaries()
        size = _ROOT_HEADER_BYTES + sum(
            _BLOCK_HEADER_BYTES + _ENTRY_BYTES * len(s.entries)
            for s in summaries.values()
        )
        total_pages = max(1, -(-size // geo.page_size))
        image = CheckpointImage(self.seq, now_us, total_pages - 1, summaries)
        oob = OOBMetadata(
            lpa=OOBMetadata.TRANSLATION_TAG,
            back_pointer=NULL_PPA,
            timestamp_us=now_us,
        )
        bm = ssd.block_manager
        written_blocks = set()
        t = now_us
        try:
            for index in range(image.parts):
                ppa, t = ssd.program_with_retry(
                    self._allocate,
                    CheckpointPart(image.seq, index),
                    oob,
                    t,
                )
                written_blocks.add(geo.block_of_page(ppa))
            # The commit record: the checkpoint exists once this lands.
            ppa, t = ssd.program_with_retry(self._allocate, image, oob, t)
            written_blocks.add(geo.block_of_page(ppa))
        except (DeviceFullError, ProgramFailureError):
            self._blocks.update(written_blocks)
            self._m_aborted.inc()
            return t
        self._blocks.update(written_blocks)
        device.counters.translation_writes += image.parts + 1
        self._m_written.inc()
        self._m_pages.inc(image.parts + 1)
        self._m_blocks.inc(len(summaries))
        self._m_reused.inc(reused)
        t = self._erase_superseded(written_blocks, t)
        tr = ssd.obs.trace
        if tr.enabled:
            tr.emit(
                "checkpoint",
                "written",
                t,
                seq=image.seq,
                pages=image.parts + 1,
                blocks=len(summaries),
            )
        return t

    def _allocate(self):
        return self._ssd.block_manager.allocate_page_keyed(
            CHECKPOINT_STREAM, BlockKind.TRANSLATION, striped=False
        )

    def _build_summaries(self):
        """Summaries for every sealed, full, healthy data block."""
        ssd = self._ssd
        device = ssd.device
        core = device.core
        ppb = device.geometry.pages_per_block
        summaries = {}
        reused = 0
        for pba in ssd.block_manager.sealed_blocks(BlockKind.DATA):
            if core.failed[pba] or core.write_pointer[pba] != ppb:
                continue
            cached = self._cache.get(pba)
            if cached is not None and cached.erase_count == core.erase_count[pba]:
                summaries[pba] = cached
                reused += 1
                continue
            summary = self._summarize(device, pba)
            if summary is None:
                continue
            self._cache[pba] = summary
            summaries[pba] = summary
        # Drop cache entries for blocks that left the sealed-data set
        # (erased, retired, condemned) so the cache tracks the pool.
        self._cache = dict(summaries)
        return summaries, reused

    @staticmethod
    def _summarize(device, pba):
        """Scan one full block into a summary (None if not summarizable)."""
        scan = device.scan_block_oob(pba)
        entries = []
        torn = 0
        for offset in range(scan.write_pointer):
            if not scan.intact[offset]:
                torn += 1
                continue
            lpa = scan.lpa[offset]
            if lpa < 0:
                # Housekeeping page inside a data block — should not
                # happen, but a summary must never hide one from
                # recovery.  Leave this block to the full scan.
                return None
            entries.append((offset, lpa, scan.timestamp_us[offset]))
        return BlockSummary(scan.erase_count, torn, tuple(entries))

    def _erase_superseded(self, written_blocks, now_us):
        """Erase translation blocks the new checkpoint made obsolete."""
        ssd = self._ssd
        bm = ssd.block_manager
        active = bm.active_block(CHECKPOINT_STREAM)
        t = now_us
        for pba in sorted(self._blocks):
            if pba in written_blocks or pba == active:
                continue
            self._blocks.discard(pba)
            if bm.kind(pba) is not BlockKind.TRANSLATION:
                # The block left our ownership since we wrote into it
                # (e.g. a wear-leveling relocation erased and reused
                # it).  It is not ours to erase anymore.
                continue
            ssd.erase_and_release(pba, t)
            self._m_superseded.inc()
        return t


# --- Recovery-side loading ------------------------------------------------


def find_translation_blocks(device):
    """PBAs whose first page is an intact translation-tagged page.

    O(total blocks): a single column probe per block, no page sweep.  A
    translation block whose very first program was torn is missed — but
    such a block holds no intact checkpoint pages at all (pages program
    sequentially and the torn page is the last op before the cut), so
    recovery correctly treats it as an all-torn data block.
    """
    core = device.core
    ppb = device.geometry.pages_per_block
    tag = OOBMetadata.TRANSLATION_TAG
    found = set()
    for pba in range(device.geometry.total_blocks):
        if core.write_pointer[pba] == 0:
            continue
        gidx = pba * ppb
        if not core.state[gidx] or core.lpa[gidx] != tag:
            continue
        seq = core.seq_tag[gidx] & ((1 << 64) - 1)
        if seq == seq_tag_of(tag, core.back_pointer[gidx], core.timestamp_us[gidx]):
            found.add(pba)
    return found


def load_latest_checkpoint(device, translation_blocks):
    """Newest *valid* checkpoint image, or None.

    Valid means: intact root page, and all ``parts`` continuation pages
    of the same sequence found intact — the commit-record rule that
    makes a mid-checkpoint power cut fall back to the previous one.
    """
    roots = []
    parts_seen = {}
    for pba in sorted(translation_blocks):
        scan = device.scan_block_oob(pba)
        first = device.geometry.first_page_of_block(pba)
        for offset in range(scan.write_pointer):
            if not scan.intact[offset]:
                continue
            payload = device.core.data[first + offset]
            if isinstance(payload, CheckpointImage):
                roots.append(payload)
            elif isinstance(payload, CheckpointPart):
                parts_seen[payload.seq] = parts_seen.get(payload.seq, 0) + 1
    roots.sort(key=lambda image: -image.seq)
    for image in roots:
        if parts_seen.get(image.seq, 0) >= image.parts:
            return image
    return None


def summary_for(image, core, pba, pages_per_block):
    """The checkpoint's summary for ``pba`` iff it still applies."""
    if image is None:
        return None
    summary = image.summaries.get(pba)
    if summary is None:
        return None
    if (
        core.failed[pba]
        or core.write_pointer[pba] != pages_per_block
        or core.erase_count[pba] != summary.erase_count
    ):
        return None
    return summary
