"""Wear leveling.

Periodically (every N erases) the leveler checks the erase-count spread.
When the gap between the most- and least-worn blocks exceeds a threshold it
migrates the content of the coldest sealed block (lowest erase count — its
data has sat still while other blocks cycled) and erases it, returning the
under-used block to the free pool where it will absorb fresh writes.

TimeSSD exempts delta blocks from swapping (paper §3.8): they are erased
in time order anyway, and migrating them would break delta-page chains.
"""

from repro.ftl.block_manager import BlockKind


class WearLeveler:
    """Cold-block swapping driven by erase-count imbalance."""

    #: Erases between two checks of the erase-count spread.
    CHECK_INTERVAL_ERASES = 64
    #: Hottest-minus-coldest erase count above which a check swaps.
    GAP_THRESHOLD = 16

    def __init__(self, ssd):
        self._ssd = ssd
        self._erases_since_check = 0
        self._leveling = False
        self.swaps = 0

    def on_erase(self, now_us):
        """Called by the FTL after every block erase."""
        self._erases_since_check += 1
        if self._leveling or self._erases_since_check < self.CHECK_INTERVAL_ERASES:
            return
        self._erases_since_check = 0
        self._leveling = True
        try:
            self._maybe_swap(now_us)
        finally:
            self._leveling = False

    # How many cold blocks one check may relocate; catches up after a
    # burst of hot-block erases without stalling foreground I/O for long.
    MAX_SWAPS_PER_CHECK = 4

    def _maybe_swap(self, now_us):
        for _ in range(self.MAX_SWAPS_PER_CHECK):
            if not self._swap_one(now_us):
                return

    def _swap_one(self, now_us):
        ssd = self._ssd
        erase_count = ssd.device.core.erase_count
        bm = ssd.block_manager
        coldest = None
        coldest_erases = None
        hottest_erases = 0
        # Only sealed data blocks are candidates; delta blocks are exempt.
        for pba in bm.sealed_blocks(BlockKind.DATA):
            erases = erase_count[pba]
            if erases > hottest_erases:
                hottest_erases = erases
            if coldest_erases is None or erases < coldest_erases:
                coldest_erases = erases
                coldest = pba
        if coldest is None:
            return False
        if hottest_erases - coldest_erases <= self.GAP_THRESHOLD:
            return False
        # Migration needs at least one free block to land in.
        if bm.free_block_count < 1:
            return False
        ssd.relocate_block(coldest, now_us)
        self.swaps += 1
        return True
