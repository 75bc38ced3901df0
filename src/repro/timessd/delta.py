"""Delta compression of obsolete data versions (paper §3.6).

When an invalid-but-retained page must move (its block is GC'd) TimeSSD
does not migrate it whole: it stores a compressed *delta* against the
latest version of the same LPA.  Deltas are grouped into page-sized delta
pages, which live in delta blocks dedicated to one bloom-filter time
segment, so an expired segment's delta blocks can be erased wholesale.

Two codecs:

* :class:`RealDeltaCodec` — XOR against the reference then LZF, for
  experiments that write real content;
* :class:`ModeledDeltaCodec` — Gaussian compression-ratio model, the
  paper's own method for content-less traces (§5.2).
"""

from dataclasses import dataclass, field

from repro.common.atomic import atomic_section
from repro.common.errors import DeviceFullError, ProgramFailureError, ReproError
from repro.flash.page import OOBMetadata
from repro.ftl.block_manager import BlockKind
from repro.timessd import lzf

#: "This record has no compression reference" sentinel for
#: :attr:`DeltaRecord.ref_ts`.  ``ref_ts`` is a *timestamp*, so its
#: sentinel must live in the time domain — recovery tests it with
#: ``ref_ts >= 0`` (uncompressed records carry it too); reusing the PPA
#: sentinel here was exactly the paper-§3 class of cross-domain
#: confusion.
NO_REF_TS = -1

#: Delta page layout: a per-page header, then each packed delta carries
#: this much chain metadata on top of its compressed payload.
DELTA_PAGE_HEADER_BYTES = 16
DELTA_METADATA_BYTES = 24


@dataclass(slots=True)
class DeltaRecord:
    """One compressed obsolete version plus its chain metadata (§3.7).

    The reverse delta chain is kept as object references (``back``): the
    paper stores a back-pointer PPA inside the delta page, and the model
    charges a flash-page read whenever a chain hop crosses into a flushed
    (``flash_ppa`` set) delta page.

    A TRIM is a record too, a *tombstone*: no payload, ``version_ts`` the
    deletion's time, and ``data_back`` the PPA of the version it deleted
    — the head of the deleted data-page chain, which the chain walk
    enters right after the tombstone (DESIGN.md, "One history per LPA").
    """

    lpa: int
    version_ts: int
    ref_ts: int
    payload: object
    size_bytes: int
    segment_id: int
    back: "DeltaRecord" = None
    flash_ppa: int = None
    dropped: bool = False
    #: False when stored uncompressed (delta-compression ablation mode).
    compressed: bool = True
    #: A tombstone's deleted data-page chain head; None on every payload
    #: record.
    data_back: int = None

    def __repr__(self):
        where = "ram" if self.flash_ppa is None else "ppa=%d" % self.flash_ppa
        kind = "deleted" if self.data_back is not None else "%dB" % self.size_bytes
        return "DeltaRecord(lpa=%d, ts=%d, %s, %s)" % (
            self.lpa,
            self.version_ts,
            kind,
            where,
        )


class DeltaCodec:
    """Interface: compress an old version against a reference version."""

    def compress(self, old_data, ref_data):
        """Return ``(payload, size_bytes)``."""
        raise NotImplementedError

    def decompress(self, payload, ref_data):
        """Return the original old version's data."""
        raise NotImplementedError

    def drop_memos(self):
        """Forget every cached page (a codec without caches has none)."""


def _xor_bytes(a, b):
    """Bytewise XOR of two equal-length byte strings.

    Wide-integer XOR is ~50x faster than a per-byte generator at page
    sizes, and the delta codec XORs every compressed version against
    its reference — this is the hottest pure-Python loop GC owns.
    """
    n = len(a)
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(n, "little")


def _lru_get(memo, key):
    """``memo[key]``, now the most recently used entry; None on a miss."""
    value = memo.pop(key, None)
    if value is not None:
        memo[key] = value
    return value


def _lru_put(memo, key, value, entries):
    """Store ``key -> value``, evicting least recently used entries so
    no more than ``entries`` remain (a dict iterates oldest first)."""
    while memo and len(memo) >= entries:
        del memo[next(iter(memo))]
    memo[key] = value


class RealDeltaCodec(DeltaCodec):
    """XOR-with-reference then LZF over real page contents.

    Content locality makes the XOR mostly zeros, which LZF's back-
    references collapse.  When no reference exists (the LPA was trimmed)
    the old page is LZF'd directly; when compression does not pay, the
    raw page is stored (mode ``raw``), mirroring real firmware.

    Both directions are memoized, each with an LRU keyed on content.
    ``compress`` is a pure function of ``(old, reference)``: synthetic
    workloads and refresh migrations recompress identical pairs, and a
    hit returns the previous ``(payload, size)`` verbatim.
    ``decompress`` is a pure function of ``(blob, reference)`` (the
    reference is None for an ``lzf`` blob): TimeKits walks decode the
    same retained versions again and again, and a hit returns the bytes
    the first decode produced after its length check.  The decode memo
    is also written through at encode time: a ``compress`` miss that
    yields an ``xor`` or ``lzf`` payload already holds the page every
    decode of that payload returns (the round trip is exact), so it
    stores ``(blob, reference) -> old page``.  Neither memo takes an
    entry while ``lock``, the device's
    :class:`~repro.timessd.secure.RetentionLock`, is closed: both hold
    plaintext pages (compress keys are old and reference versions), and
    a locked device keeps no past version in RAM (§3.10).  ``raw``
    payloads need no decode and are never cached; neither are errors,
    and a blob this codec did not encode (corrupted or foreign) is a
    different key and decodes in full.  Payloads and pages are
    immutable bytes, safe to share; the memos change no observable
    result, only the wall-clock cost.
    """

    #: Compress LRU entries kept (pairs of pages; bounded so a big
    #: device cannot grow the cache past a few MiB of references).
    MEMO_ENTRIES = 512

    #: Decoded bytes the decompress LRU keeps: 4 MiB of pages (4 096 at
    #: 1 KiB).  It holds the pages of the payloads most recently encoded
    #: or decoded: a ``timekits`` round encodes ~3 100, under the bound,
    #: so its walks find every one here.  Each entry also pins its key
    #: — a blob of at most one page and, for ``xor``, the reference
    #: page — so a full memo holds at most ~12 MiB.
    DECODE_MEMO_BYTES = 4 << 20

    def __init__(self, page_size, lock=None):
        self.page_size = page_size
        self._lock = lock
        self._memo = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self._decode_memo = {}
        self.decode_hits = 0
        self.decode_misses = 0

    def _check(self, name, data):
        if not isinstance(data, (bytes, bytearray)):
            raise ReproError("%s must be bytes in REAL content mode" % name)
        if len(data) != self.page_size:
            raise ReproError(
                "%s must be exactly one page (%d bytes), got %d"
                % (name, self.page_size, len(data))
            )

    def drop_memos(self):
        # Both memos hold plaintext pages: compress keys are old and
        # reference versions, decompress values are past versions.
        self._memo.clear()
        self._decode_memo.clear()

    def compress(self, old_data, ref_data):
        self._check("old_data", old_data)
        if ref_data is not None:
            self._check("ref_data", ref_data)
        key = (bytes(old_data), None if ref_data is None else bytes(ref_data))
        cached = _lru_get(self._memo, key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        if ref_data is not None:
            blob = lzf.compress(_xor_bytes(key[0], key[1]))
            mode = "xor"
        else:
            blob = lzf.compress(old_data)
            mode = "lzf"
        unlocked = self._lock is None or self._lock.unlocked
        if len(blob) >= self.page_size:
            result = ("raw", bytes(old_data)), self.page_size
        else:
            result = (mode, blob), len(blob)
            if unlocked:
                _lru_put(
                    self._decode_memo,
                    (blob, key[1]),
                    key[0],
                    self.DECODE_MEMO_BYTES // self.page_size,
                )
        if unlocked:
            _lru_put(self._memo, key, result, self.MEMO_ENTRIES)
        return result

    def decompress(self, payload, ref_data):
        mode, blob = payload
        if mode == "raw":
            return blob
        if mode == "lzf":
            ref = None
        elif mode == "xor":
            if ref_data is None:
                raise ReproError("xor delta needs its reference version")
            ref = bytes(ref_data)
        else:
            raise ReproError("unknown delta payload mode %r" % (mode,))
        blob = bytes(blob)
        key = (blob, ref)
        data = _lru_get(self._decode_memo, key)
        if data is not None:
            self.decode_hits += 1
            return data
        self.decode_misses += 1
        data = lzf.decompress(blob, self.page_size)
        if ref is not None:
            data = _xor_bytes(data, ref)
        _lru_put(
            self._decode_memo,
            key,
            data,
            self.DECODE_MEMO_BYTES // self.page_size,
        )
        return data


class ModeledDeltaCodec(DeltaCodec):
    """Synthetic compressibility for content-less trace replays.

    Delta sizes follow a clipped Gaussian ratio of the page size; the
    payload is the old version's token, returned verbatim on decompress
    so version identity survives the round trip.  The default mean is
    §5.2's 0.2, inside the 0.05-0.25 range the I-CASH study the paper
    cites measured across applications.
    """

    def __init__(self, page_size, ratio_mean=0.20, ratio_sd=0.05, rng=None):
        if rng is None:
            raise ReproError("ModeledDeltaCodec needs an explicit rng")
        self.page_size = page_size
        self.ratio_mean = ratio_mean
        self.ratio_sd = ratio_sd
        self._rng = rng

    def compress(self, old_data, ref_data):
        ratio = self._rng.gauss(self.ratio_mean, self.ratio_sd)
        ratio = min(0.95, max(0.02, ratio))
        return old_data, max(1, int(self.page_size * ratio))

    def decompress(self, payload, ref_data):
        return payload


class DeltaPage:
    """The object programmed into a delta-page flash write.

    Models the paper's delta page: a header (delta count and byte
    offsets) followed by the packed deltas with their metadata.
    """

    __slots__ = ("records",)

    def __init__(self, records):
        self.records = list(records)

    def __repr__(self):
        return "DeltaPage(%d deltas)" % len(self.records)


@dataclass
class _SegmentDeltas:
    """RAM-side delta state of one bloom segment."""

    buffer: list = field(default_factory=list)
    buffered_bytes: int = 0
    blocks: set = field(default_factory=set)


class DeltaManager:
    """Per-segment delta buffers, delta-page packing, and delta blocks."""

    def __init__(self, ssd, codec, page_size):
        self._ssd = ssd
        self.codec = codec
        self._page_size = page_size
        self._segments = {}
        #: Delta pages programmed: the ``timessd.delta.flushed_pages``
        #: counter (read ``.value``).
        self.flushed_pages = ssd.obs.metrics.counter("timessd.delta.flushed_pages")
        self.records_created = 0

    def _segment_state(self, segment_id):
        state = self._segments.get(segment_id)
        if state is None:
            state = _SegmentDeltas()
            self._segments[segment_id] = state
        return state

    def usable_page_bytes(self):
        return self._page_size - DELTA_PAGE_HEADER_BYTES

    def add_records(self, records, now_us):
        """Buffer new deltas, in order, each in its segment's buffer; a
        record that does not fit first flushes that buffer as a delta
        page, issued at the previous flush's completion.

        Returns the last flush's completion time, else ``now_us``.
        """
        usable = self.usable_page_bytes()
        t = now_us
        for record in records:
            state = self._segment_state(record.segment_id)
            footprint = record.size_bytes + DELTA_METADATA_BYTES
            if state.buffer and state.buffered_bytes + footprint > usable:
                t = self.flush_segment(record.segment_id, t)
            state.buffer.append(record)
            state.buffered_bytes += min(footprint, usable)
            self.records_created += 1
        return t

    @atomic_section(
        "the RAM buffer empties, the records learn their flash PPA and "
        "the segment's block set grows in one step: a query suspended "
        "in between would find a record that is neither in RAM nor "
        "readable from flash yet (a deferred flush mutates nothing, so "
        "the failure path needs no rollback)",
        # Once the delta page is programmed, flash is the source of
        # truth: the RAM-side bookkeeping after the program is exactly
        # what recovery's segment scan reconstructs, so an exception in
        # it loses no record.
    )
    def flush_segment(self, segment_id, now_us):
        """Write the segment's buffered deltas as one delta page.

        When the free pool is momentarily empty (GC mid-flight can touch
        many segments at once) the flush is deferred: the records stay in
        the RAM buffer — still retained and queryable — and the next
        ``add_records`` retries.  Real firmware holds them in the reserved
        controller RAM the same way.
        """
        state = self._segment_state(segment_id)
        if not state.buffer:
            return now_us
        bm = self._ssd.block_manager
        page = DeltaPage(state.buffer)
        oob = OOBMetadata(
            lpa=OOBMetadata.DELTA_TAG, back_pointer=-1, timestamp_us=now_us
        )
        try:
            ppa, complete = self._ssd.program_with_retry(
                lambda: bm.allocate_page_keyed(
                    ("delta", segment_id), BlockKind.DELTA
                ),
                page,
                oob,
                now_us,
            )
        except (DeviceFullError, ProgramFailureError):
            # Records stay in the RAM buffer — still retained and
            # queryable — and the next add_records retries the flush.
            return now_us
        packed = len(state.buffer)
        for record in state.buffer:
            record.flash_ppa = ppa
        state.blocks.add(self._ssd.device.geometry.block_of_page(ppa))
        state.buffer = []
        state.buffered_bytes = 0
        self.flushed_pages.inc()
        tr = self._ssd.obs.trace
        if tr.enabled:
            tr.emit(
                "delta",
                "flush",
                complete,
                segment_id=segment_id,
                ppa=ppa,
                records=packed,
            )
        return complete

    def reset(self):
        """Drop all RAM-side delta state (power loss loses the buffers)."""
        self._segments = {}

    def adopt_block(self, segment_id, pba):
        """Re-register a delta block found by crash recovery.

        Recovered records are re-homed into one recovery segment; its
        state must own their blocks so ``drop_segment`` erases them when
        the recovery segment eventually expires.
        """
        self._segment_state(segment_id).blocks.add(pba)

    def ram_bytes(self):
        return sum(s.buffered_bytes for s in self._segments.values())

    def segment_blocks(self, segment_id):
        state = self._segments.get(segment_id)
        return set(state.blocks) if state else set()

    @atomic_section(
        "segment teardown: dropping the RAM records, closing the delta "
        "append stream and erasing the segment's blocks must look like "
        "one event — a reader interleaved mid-drop could resurrect a "
        "record whose backing block is already queued for erase",
        # Records are marked dropped before any erase, so a mid-loop
        # erase failure (bad block, retired inside erase_and_release)
        # never resurrects history; completed erases are durable.
    )
    def drop_segment(self, segment_id, now_us):
        """Destroy a segment's deltas: erase its delta blocks immediately.

        The paper erases an expired segment's delta blocks with no
        migration — they contain only expired versions by construction.
        Returns the number of blocks erased.
        """
        state = self._segments.pop(segment_id, None)
        if state is None:
            return 0
        for record in state.buffer:
            record.dropped = True
        bm = self._ssd.block_manager
        bm.close_stream(("delta", segment_id))
        erased = 0
        for pba in state.blocks:
            self._mark_block_records_dropped(pba)
            self._ssd.erase_and_release(pba, now_us)
            erased += 1
        return erased

    def _mark_block_records_dropped(self, pba):
        core = self._ssd.device.core
        base = pba * core.pages_per_block
        for data in core.data[base : base + core.pages_per_block]:
            if isinstance(data, DeltaPage):
                for record in data.records:
                    record.dropped = True

    def live_segment_ids(self):
        return set(self._segments)
