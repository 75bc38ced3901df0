"""FlashGuard (CCS'17), the paper's Figure 10 comparator.

FlashGuard defends against encryption ransomware with a narrower
retention rule than TimeSSD: it retains an invalidated page **only if
the page was read since it was last written** — the read-then-overwrite
signature of file encryption.  Retained pages are kept uncompressed, so
recovery skips the delta-decompression TimeSSD pays (the ~14% gap in
Figure 10), but arbitrary history queries are impossible.
"""

from collections import deque
from dataclasses import dataclass

from repro.common.errors import DeviceFullError, UncorrectableReadError
from repro.ftl.block_manager import BlockKind
from repro.ftl.ssd import BaseSSD
from repro.timekits.api import check_threads, pick_as_of


@dataclass
class _RetainedVersion:
    lpa: int
    timestamp_us: int
    ppa: int
    evicted: bool = False


class FlashGuardSSD(BaseSSD):
    """An SSD retaining read-then-overwritten pages for recovery."""

    def __init__(self, config=None, clock=None):
        super().__init__(config, clock)
        self._read_since_write = set()
        self._retained_by_ppa = {}
        self._versions_by_lpa = {}
        self._retention_queue = deque()
        self.retained_count = 0

    # --- Retention rule ----------------------------------------------------------

    def serve_read_at(self, lpa, arrival_us):
        result = super().serve_read_at(lpa, arrival_us)
        self._read_since_write.add(lpa)
        return result

    def _on_invalidate(self, lpa, old_ppa, now_us):
        super()._on_invalidate(lpa, old_ppa, now_us)
        if lpa not in self._read_since_write:
            return
        self._read_since_write.discard(lpa)
        timestamp_us = self.device.core.timestamp_us[old_ppa]
        version = _RetainedVersion(lpa, timestamp_us, old_ppa)
        self._retained_by_ppa[old_ppa] = version
        self._versions_by_lpa.setdefault(lpa, []).append(version)
        self._retention_queue.append(version)
        self.retained_count += 1

    # --- GC: migrate retained pages like valid ones --------------------------------

    def _collect_garbage(self, now_us):
        victim = self.block_manager.select_greedy_victim(BlockKind.DATA)
        if victim is None:
            if not self._evict_oldest_retained(fraction=0.1):
                raise DeviceFullError("FlashGuard: device full of live data")
            return
        self.relocate_block(victim, now_us)

    def _settle_stale_page(self, ppa, now_us, outcome):
        """A retained page moves like a valid one — read at the cursor,
        programmed once the read completes — and its version record
        follows; any other stale page is discarded with the block.  GC
        and scrub refresh both move a retained page this way."""
        version = self._retained_by_ppa.get(ppa)
        if version is None:
            return now_us
        # The copy re-points a version record, not the mapping; it is the
        # GC copy every migration makes (ladder read, remap-on-failure).
        try:
            new_ppa, t = self.copy_to_gc_stream(ppa, now_us)
        except UncorrectableReadError:
            # Gone despite the full ladder: the version cannot be kept,
            # and the block under reclaim is erased all the same.
            self._drop_version(version)
            return now_us
        del self._retained_by_ppa[ppa]
        version.ppa = new_ppa
        self._retained_by_ppa[new_ppa] = version
        return t

    def _on_gc_stall(self, stalled_rounds, now_us):
        self._evict_oldest_retained(fraction=0.1)

    def _evict_oldest_retained(self, fraction):
        """Give up the oldest retained versions to make GC progress."""
        evict = max(1, int(len(self._retention_queue) * fraction))
        evicted = 0
        while evicted < evict and self._retention_queue:
            version = self._retention_queue.popleft()
            if version.evicted:
                continue
            self._drop_version(version)
            evicted += 1
        return evicted > 0

    def _drop_version(self, version):
        """Give one retained version up: no recovery finds it again, and
        the retention queue skips it when eviction gets there."""
        version.evicted = True
        self._retained_by_ppa.pop(version.ppa, None)
        versions = self._versions_by_lpa.get(version.lpa)
        if versions:
            self._versions_by_lpa[version.lpa] = [
                v for v in versions if v is not version
            ]
        self.retained_count -= 1

    # --- Recovery -----------------------------------------------------------------

    def recover_lpas(self, lpas, t, threads=1):
        """Read each LPA's newest retained version at/before ``t``, if any.

        Returns ``(restored, elapsed_us)`` where ``restored`` maps LPA to
        the recovered page data; like :meth:`TimeKits.as_of` it only
        reads, and the caller writes the pages back (Figure 10 does so
        through the file system).  Thread-level parallelism matches the
        TimeKits model: each simulated thread works its share of LPAs
        serially, overlapping across channels, and ``threads`` is checked
        as TimeKits checks it.  A version is read through the read-retry
        ladder like a host page; one the whole ladder cannot read is
        given up and its LPA left out of ``restored``.
        """
        check_threads(threads)
        start = self.clock.now_us
        cursors = [start] * min(threads, len(lpas))
        restored = {}
        for i, lpa in enumerate(lpas):
            k = i % len(cursors)
            # ``_drop_version`` takes a version off this list, so every
            # version on it is live.
            versions = sorted(
                self._versions_by_lpa.get(lpa, ()),
                key=lambda v: v.timestamp_us,
                reverse=True,
            )
            version = pick_as_of(versions, t)
            if version is None:
                continue
            try:
                cursors[k] = self.read_page_with_retry(version.ppa, cursors[k])[0]
            except UncorrectableReadError:
                self._drop_version(version)
                continue
            restored[lpa] = self.device.core.data[version.ppa]
        self.clock.advance_to(max(cursors, default=start))
        return restored, self.clock.now_us - start
