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

from repro.common.atomic import atomic_section
from repro.common.errors import DeviceFullError
from repro.flash.page import NULL_PPA
from repro.ftl.block_manager import BlockKind, StreamId
from repro.ftl.ssd import BaseSSD


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
        self._reclaim(victim, now_us)

    @atomic_section(
        "FlashGuard reclaims a victim as one step: live and retained "
        "pages migrate and the block is erased before anyone else can "
        "allocate from it",
        # Per-page migration is self-consistent: a page is remapped (or
        # its retained-version record re-pointed) before the next page
        # is touched, so a mid-reclaim failure loses nothing.
    )
    def _reclaim(self, victim, now_us):
        bm = self.block_manager
        state = self.device.core.state
        for ppa in self.device.geometry.pages_of_block(victim):
            if not state[ppa]:
                continue
            if bm.is_valid(ppa):
                self.migrate_page(ppa, self.device.read_page(ppa, now_us), now_us)
            elif ppa in self._retained_by_ppa:
                version = self._retained_by_ppa.pop(ppa)
                result = self.device.read_page(ppa, now_us)
                new_ppa = bm.allocate_page(StreamId.GC)
                # FlashGuard is itself an FTL (the CCS'17 comparator), so
                # its GC owns the raw copy of a retained page: it re-points
                # a version record, not the mapping.
                self.device.program_page(new_ppa, result.data, result.oob, now_us)  # almanac: ignore[layering-flash-api]
                version.ppa = new_ppa
                self._retained_by_ppa[new_ppa] = version
        self.erase_and_release(victim, now_us)

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
            version.evicted = True
            self._retained_by_ppa.pop(version.ppa, None)
            versions = self._versions_by_lpa.get(version.lpa)
            if versions:
                self._versions_by_lpa[version.lpa] = [
                    v for v in versions if v is not version
                ]
            self.retained_count -= 1
            evicted += 1
        return evicted > 0

    # --- Recovery -----------------------------------------------------------------

    def recover_lpas(self, lpas, t, threads=1, write_back=True):
        """Restore each LPA to its newest retained version at/before ``t``.

        Returns ``(restored, elapsed_us)`` where ``restored`` maps LPA to
        the recovered page data.  Thread-level parallelism matches the
        TimeKits model: each simulated thread works its share of LPAs
        serially, overlapping across channels.  With ``write_back=False``
        the versions are only read (the caller restores them through a
        file system).
        """
        start = self.clock.now_us
        cursors = [start] * max(1, threads)
        restored = {}
        pending = []
        for i, lpa in enumerate(lpas):
            k = i % len(cursors)
            version = self._pick_version(lpa, t)
            if version is None:
                continue
            result = self.device.read_page(version.ppa, cursors[k])
            cursors[k] = result.complete_us
            restored[lpa] = result.data
            pending.append((lpa, result.data))
        self.clock.advance_to(max(cursors))
        if write_back:
            for lpa, data in pending:
                self.write(lpa, data)
        return restored, self.clock.now_us - start

    def _pick_version(self, lpa, t):
        best = None
        for version in self._versions_by_lpa.get(lpa, ()):
            if version.evicted:
                continue
            if version.timestamp_us <= t and (
                best is None or version.timestamp_us > best.timestamp_us
            ):
                best = version
        if best is None:
            # Fall back to the oldest retained version (best effort).
            candidates = [v for v in self._versions_by_lpa.get(lpa, ()) if not v.evicted]
            best = min(candidates, key=lambda v: v.timestamp_us) if candidates else None
        return best
