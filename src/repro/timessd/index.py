"""The time-travel reverse index (paper §3.7).

Each LPA's version history is split into two chains:

* the **data-page chain** — uncompressed versions still sitting on flash
  data pages, linked newest-to-oldest by the back-pointers in each page's
  OOB metadata; its head is the AMT entry;
* the **delta-page chain** — older versions compressed into deltas,
  linked by delta back-pointers; its head lives in the index mapping
  table (IMT).

Invariant (established by GC, checked by tests): every delta-chain
version is older than every surviving data-page version of the same LPA.

The page reclamation table (PRT) marks invalid pages whose content has
been compressed (or has expired) so GC can discard them without reading.
"""

from dataclasses import dataclass

from repro.common.atomic import atomic_section
from repro.flash.page import NULL_PPA


@dataclass(frozen=True)
class Version:
    """One retrievable version of a logical page."""

    lpa: int
    timestamp_us: int
    data: object
    source: str  # "current", "data-page", "delta", "delta-ram"

    def __repr__(self):
        return "Version(lpa=%d, ts=%d, %s)" % (self.lpa, self.timestamp_us, self.source)


@dataclass
class ChainWalk:
    """Result of walking a version chain: entries plus the finish time."""

    entries: list
    complete_us: int


class TimeTravelIndex:
    """IMT + PRT + chain-walking over a flash device."""

    def __init__(self, device, reader=None):
        self._core = device.core
        self._geo = device.geometry
        #: Page-read entry point for chain walks.  The owning SSD passes
        #: its read-retry ladder so time-travel queries get the same
        #: media defenses as host reads; standalone/recovery use of the
        #: index reads the device directly.
        self._read = reader if reader is not None else device.read_page
        self._imt = {}
        self._reclaimable = set()

    # --- PRT ----------------------------------------------------------------

    def mark_reclaimable(self, ppa):
        """Mark an invalid page reclaimable; True if newly marked."""
        if ppa in self._reclaimable:
            return False
        self._reclaimable.add(ppa)
        return True

    def is_reclaimable(self, ppa):
        return ppa in self._reclaimable

    @property
    def reclaimable_ppas(self):
        """The PRT itself (live set, read-only by convention): per-block
        firmware loops test membership on it instead of calling
        :meth:`is_reclaimable` once per page."""
        return self._reclaimable

    @atomic_section(
        "the PRT bits of an erased block vanish as one unit: a GC pass "
        "interleaved over a half-cleared block would treat its surviving "
        "reclaimable bits as live compression state"
    )
    def clear_block(self, pba):
        """Forget PRT bits of an erased block."""
        # Resolve the page range (which validates pba) before touching
        # the PRT, so a bad block id leaves the set untouched.
        ppas = list(self._geo.pages_of_block(pba))
        for ppa in ppas:
            self._reclaimable.discard(ppa)

    def reclaimable_count(self):
        return len(self._reclaimable)

    # --- IMT ----------------------------------------------------------------

    def delta_head(self, lpa):
        return self._imt.get(lpa)

    def set_delta_head(self, lpa, record):
        if record is None:
            self._imt.pop(lpa, None)
        else:
            self._imt[lpa] = record

    def imt_size(self):
        return len(self._imt)

    def delta_head_lpas(self):
        """The LPAs that own a delta chain (the IMT's keys, a live view)."""
        return self._imt.keys()

    # --- Data-page chain ------------------------------------------------------

    def _page_holds_version(self, ppa, lpa, newer_ts):
        """Verify a chain hop: the page must still hold ``lpa`` data older
        than ``newer_ts`` (paper: "correct LPA and a decreasing timestamp").
        """
        if ppa in self._reclaimable:
            # Compressed or expired: the version lives on (if at all) in
            # the delta chain, and the physical page may be a stale copy
            # at a reused address — not a trustworthy chain hop.
            return False
        self._geo.check_ppa(ppa)
        core = self._core
        if not core.state[ppa]:
            return False
        if core.lpa[ppa] != lpa or core.timestamp_us[ppa] >= newer_ts:
            return False
        return core.intact_at(ppa)  # torn/burned residue: never a chain hop

    def walk_data_chain(self, lpa, head_ppa, now_us, include_head=True, until_ts=None):
        """Follow back-pointers from ``head_ppa``; returns a ChainWalk.

        Entries are ``(ppa, oob, data)`` newest first.  Each hop costs a
        flash page read, sequenced on the page's channel (dependent reads
        cannot overlap).  The walk stops at a NULL pointer, an erased or
        recycled page, or a timestamp-order violation — exactly the
        "chain broken by GC" condition of the paper's Figure 5.

        ``until_ts`` implements the paper's AddrQuery early stop:
        "retrieval stops when a version's writing time reaches the target
        time" — the first entry written at or before ``until_ts`` ends
        the walk.
        """
        entries = []
        t = now_us
        if head_ppa == NULL_PPA:
            return ChainWalk(entries, t)
        self._geo.check_ppa(head_ppa)
        if not self._core.state[head_ppa]:
            return ChainWalk(entries, t)
        result = self._read(head_ppa, t)
        t = result.complete_us
        if result.oob.lpa != lpa or not self._core.intact_at(head_ppa):
            return ChainWalk(entries, t)
        if include_head:
            entries.append((head_ppa, result.oob, result.data))
        if until_ts is not None and result.oob.timestamp_us <= until_ts:
            return ChainWalk(entries, t)
        prev_ts = result.oob.timestamp_us
        ppa = result.oob.back_pointer
        while ppa != NULL_PPA and self._page_holds_version(ppa, lpa, prev_ts):
            result = self._read(ppa, t)
            t = result.complete_us
            entries.append((ppa, result.oob, result.data))
            prev_ts = result.oob.timestamp_us
            if until_ts is not None and prev_ts <= until_ts:
                break
            ppa = result.oob.back_pointer
        return ChainWalk(entries, t)

    # --- Delta chain ------------------------------------------------------------

    def walk_delta_chain(self, lpa, now_us, until_ts=None, delta_pages=None):
        """Follow the delta chain from the IMT head; returns a ChainWalk.

        Entries are live :class:`DeltaRecord` objects, newest first.
        Hopping into a flushed delta page costs one flash read unless the
        page is already in ``delta_pages``, the set of delta pages the
        controller holds buffered, which every fetched page joins —
        several deltas of one LPA, and of neighbouring LPAs, often share
        a page.  The caller that owns the set decides how long the buffer
        lives; ``None`` means this walk alone.  RAM-buffered records cost
        nothing.  ``until_ts`` stops the walk at the first record written
        at or before it.
        """
        entries = []
        t = now_us
        if delta_pages is None:
            delta_pages = set()
        record = self._imt.get(lpa)
        while record is not None:
            if record.dropped:
                break
            if record.flash_ppa is not None and record.flash_ppa not in delta_pages:
                result = self._read(record.flash_ppa, t)
                t = result.complete_us
                delta_pages.add(record.flash_ppa)
            entries.append(record)
            if until_ts is not None and record.version_ts <= until_ts:
                break
            record = record.back
        return ChainWalk(entries, t)

    def prune_dropped_head(self, lpa):
        """Drop IMT heads whose records died with their bloom segment."""
        record = self._imt.get(lpa)
        while record is not None and record.dropped:
            record = record.back
        self.set_delta_head(lpa, record)
        return record
