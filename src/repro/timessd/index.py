"""The time-travel reverse index (paper §3.7).

Each LPA's version history is split into two chains:

* the **data-page chain** — uncompressed versions still sitting on flash
  data pages, linked newest-to-oldest by the back-pointers in each page's
  OOB metadata; its head is the AMT entry;
* the **delta-page chain** — older versions compressed into deltas,
  linked by delta back-pointers; its head lives in the index mapping
  table (IMT).

A TRIM enters the delta chain as a tombstone record (no payload, the
deletion's time) that hands the walk to the deleted version's data-page
chain — its *branch* — before the records behind it, so one newest-first
walk covers every generation of the LPA, deletions included.

Invariant (established by GC, checked by tests): within each generation
— the mapped chain and its deltas down to the newest tombstone, each
tombstone's branch and its deltas down to the next — every delta-chain
version is older than every surviving data-page version.

The page reclamation table (PRT) marks invalid pages whose content has
been compressed (or has expired) so GC can discard them without reading;
it is the block manager's ``reclaimable`` column, which an erase clears,
and the chain hop below never enters a page it marks.
"""

import math
from collections import namedtuple

from repro.flash.page import NULL_PPA


class Version(namedtuple("_VersionFields", "lpa timestamp_us data source")):
    """One retrievable version of a logical page.

    ``source`` is "current", "data-page", "delta", "delta-ram", or
    "deleted": a TRIM at ``timestamp_us`` (``data`` None).

    An immutable four-field value, tuple-backed like
    :class:`OOBMetadata`: a chain walk builds one per version it reaches.
    """

    __slots__ = ()

    def __repr__(self):
        return "Version(lpa=%d, ts=%d, %s)" % (self.lpa, self.timestamp_us, self.source)


class TimeTravelIndex:
    """The IMT, plus the hop rules over a flash device and its PRT column;
    :meth:`TimeSSD.version_chain` is the one timed walker."""

    def __init__(self, device, reclaimable):
        self._core = device.core
        self._geo = device.geometry
        #: The PRT (``BlockManager.reclaimable``), read-only here.
        self._prt = reclaimable
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

    def older_versions(
        self, lpa, back, newer_ts=math.inf, committed=None, memo=False
    ):
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
        ``memo`` asks that check through the memoized
        :meth:`ColumnarFlashArray.sealed_at`: the timed chain walk
        re-verifies the same retained pages walk after walk, while GC's
        compression and recovery check a page about once.
        """
        core = self._core
        intact = core.sealed_at if memo else core.intact_at
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
                    or intact(back)
                )
            ):
                return
            yield back
            newer_ts = timestamp_us[back]
            back = back_pointer[back]

    # --- Delta chain ------------------------------------------------------------

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
