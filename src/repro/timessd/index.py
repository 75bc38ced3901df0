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
been compressed (or has expired) so GC can discard them without reading;
it is the block manager's ``reclaimable`` column, which an erase clears,
and the chain hop below never enters a page it marks.
"""

import math
from dataclasses import dataclass

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
    """IMT + chain-walking over a flash device and its PRT column."""

    def __init__(self, device, reclaimable, reader=None):
        self._core = device.core
        self._geo = device.geometry
        #: The PRT (``BlockManager.reclaimable``), read-only here.
        self._prt = reclaimable
        #: Page-read entry point for chain walks.  The owning SSD passes
        #: its read-retry ladder so time-travel queries get the same
        #: media defenses as host reads; standalone/recovery use of the
        #: index reads the device directly.
        self._read = reader if reader is not None else device.read_page
        self._imt = {}

    # --- IMT ----------------------------------------------------------------

    def delta_head(self, lpa):
        return self._imt.get(lpa)

    def set_delta_head(self, lpa, record):
        if record is None:
            self._imt.pop(lpa, None)
        else:
            self._imt[lpa] = record

    def delta_head_lpas(self):
        """The LPAs that own a delta chain (the IMT's keys, a live view)."""
        return self._imt.keys()

    # --- Data-page chain ------------------------------------------------------

    def older_versions(self, lpa, back, newer_ts=math.inf, committed=None):
        """Yield the PPAs of the data-page versions of ``lpa`` from
        ``back`` down, newest first; untimed (the caller reads what it
        needs).

        ``back`` is a version's back-pointer and ``newer_ts`` that
        version's write stamp; with no newer stamp, ``back`` is a chain
        head and the first hop.  This is the one chain-hop rule (paper
        §3.7: "correct LPA and a decreasing timestamp"): a hop is taken
        only into a page that is not in the PRT — compressed or expired,
        its version lives on (if at all) in the delta chain, and the
        physical page may be a stale copy at a reused address — that is
        programmed, holds ``lpa`` with a stamp older than the version
        above it, and whose seal is intact (torn or burned residue is
        never a hop).  ``committed`` is an optional column of pages
        whose seal is already verified (recovery's sweep): a positive
        hint only, so a page it does not vouch for takes the full check.
        """
        core = self._core
        total_pages = core.total_pages
        state = core.state
        lpas = core.lpa
        timestamp_us = core.timestamp_us
        back_pointer = core.back_pointer
        reclaimable = self._prt
        while back != NULL_PPA:
            if not 0 <= back < total_pages:
                self._geo.check_ppa(back)
            if (
                reclaimable[back]
                or not state[back]
                or lpas[back] != lpa
                or timestamp_us[back] >= newer_ts
                or not (
                    (committed is not None and committed[back])
                    or core.intact_at(back)
                )
            ):
                return
            yield back
            newer_ts = timestamp_us[back]
            back = back_pointer[back]

    def walk_data_chain(self, lpa, head_ppa, now_us, until_ts=None):
        """Follow back-pointers from ``head_ppa``; returns a ChainWalk.

        Entries are ``(ppa, oob, data)`` newest first, the head included.
        Each hop (:meth:`older_versions`, the head its first) costs a
        flash page read, sequenced on the page's channel (dependent reads
        cannot overlap).  The walk stops at a NULL pointer, an erased,
        recycled or PRT-marked page, or a timestamp-order violation —
        exactly the "chain broken by GC" condition of the paper's
        Figure 5.

        ``until_ts`` implements the paper's AddrQuery early stop:
        "retrieval stops when a version's writing time reaches the target
        time" — the first entry written at or before ``until_ts`` ends
        the walk.
        """
        entries = []
        t = now_us
        for ppa in self.older_versions(lpa, head_ppa):
            result = self._read(ppa, t)
            t = result.complete_us
            entries.append((ppa, result.oob, result.data))
            if until_ts is not None and result.oob.timestamp_us <= until_ts:
                break
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
        for record in self.live_deltas(self._imt.get(lpa)):
            if record.flash_ppa is not None and record.flash_ppa not in delta_pages:
                result = self._read(record.flash_ppa, t)
                t = result.complete_us
                delta_pages.add(record.flash_ppa)
            entries.append(record)
            if until_ts is not None and record.version_ts <= until_ts:
                break
        return ChainWalk(entries, t)

    @staticmethod
    def live_deltas(record):
        """Yield ``record`` and the records behind it, newest first, up to
        the first one that died with its bloom segment."""
        while record is not None and not record.dropped:
            yield record
            record = record.back

    def prune_dropped_head(self, lpa):
        """Drop IMT heads whose records died with their bloom segment."""
        record = self._imt.get(lpa)
        while record is not None and record.dropped:
            record = record.back
        self.set_delta_head(lpa, record)
        return record
