"""Block lifecycle management: free pool, active blocks, BST and page marks.

Implements the paper's block status table (BST, per-block status and
invalid-page counts — extended by TimeSSD to mark delta blocks) and the
per-page firmware marks, each a byte column indexed by PPA: ``valid``
(the PVT), ``reclaimable`` (§3.7's PRT: an invalid page whose version was
compressed or expired, discarded by GC without a read) and ``at_risk``
(queued for scrub refresh).  Only :meth:`BlockManager.release_block`
and a power cut (a fresh manager) clear a block's marks, so no mark
outlives its page.  Whether a block stays in service is one rule,
:meth:`BlockManager.in_service`, applied by ``release_block`` — after an
erase, and at mount.  Free blocks are handed out round-robin across
channels so sequential allocation stripes the device.
"""

import enum
import operator
from array import array
from collections import deque
from functools import partial

from repro.common.atomic import atomic_section
from repro.common.errors import AddressError, DeviceFullError
from repro.flash.page import NULL_PPA


class BlockKind(enum.Enum):
    """What a block currently holds (the BST 'status' column)."""

    FREE = "free"
    DATA = "data"
    DELTA = "delta"  # TimeSSD: blocks holding compressed version deltas
    TRANSLATION = "translation"
    RETIRED = "retired"  # grew bad or wore out its P/E budget; never used again


class StreamId(enum.Enum):
    """Independent append points for data blocks.

    Host writes and GC migrations each get their own active block so GC
    does not mix retained history into fresh user blocks.  (Delta pages
    and checkpoints append through :meth:`BlockManager.allocate_page_keyed`
    under keys of their own.)
    """

    USER = "user"
    GC = "gc"

    # Members are singletons compared by identity, so the identity hash
    # is exact — and, unlike ``Enum.__hash__``, not a Python-level call
    # on each of the two dict lookups every page allocation makes.
    __hash__ = object.__hash__


class BlockManager:
    """Free-space accounting and page allocation over a flash device."""

    def __init__(self, device, block_endurance_cycles=None):
        self.device = device
        self._core = device.core
        self.block_endurance_cycles = block_endurance_cycles
        self.retired_blocks = 0
        geo = device.geometry
        self._geo = geo
        # The BST, by PBA: each block's kind, and whether it is
        # force-sealed — treated as full for victim selection though pages
        # remain (orphaned partial blocks after crash recovery).
        self._kinds = [BlockKind.FREE] * geo.total_blocks
        self._sealed = bytearray(geo.total_blocks)
        # The per-page marks (module docstring), indexed directly by
        # firmware loops; each keeps its identity for the manager's life.
        self.valid = bytearray(geo.total_pages)
        #: ``valid`` pages per block (PBA); a loop flipping PVT bits moves it.
        self.valid_per_block = array("q", bytes(8 * geo.total_blocks))
        self.reclaimable = bytearray(geo.total_pages)
        self.at_risk = bytearray(geo.total_pages)
        self._free = [deque() for _ in range(geo.channels)]
        for pba in range(geo.total_blocks):
            self._free[geo.channel_of_block(pba)].append(pba)
        self._free_count = geo.total_blocks
        self._next_channel = 0
        # Active (partially programmed) blocks per stream.  Striped
        # streams (host writes, GC migration) keep one append block per
        # channel and rotate, as real FTLs do to exploit parallelism;
        # unstriped streams (delta blocks) fill one block at a time.
        self._active = {}

    # --- Free pool -----------------------------------------------------------

    @property
    def free_block_count(self):
        return self._free_count

    def _pop_free_block(self, preferred_channel=None):
        """Take a free block, preferring a channel (else round-robin)."""
        if self._free_count == 0:
            raise DeviceFullError("no free blocks available")
        channels = self._geo.channels
        start = self._next_channel if preferred_channel is None else preferred_channel
        for probe in range(channels):
            channel = (start + probe) % channels
            if self._free[channel]:
                if preferred_channel is None:
                    self._next_channel = (channel + 1) % channels
                self._free_count -= 1
                return self._free[channel].popleft()
        raise DeviceFullError("free count out of sync with pools")

    def _forget_page_marks(self, pba):
        """Clear ``pba``'s slice of every per-page column (its erase)."""
        ppb = self._geo.pages_per_block
        for column in (self.valid, self.reclaimable, self.at_risk):
            column[pba * ppb:(pba + 1) * ppb] = bytes(ppb)

    def in_service(self, pba):
        """The one retirement rule, over media truth: a block serves until
        it grows bad (the ``failed`` column) or its erase count reaches
        the configured endurance budget."""
        core = self._core
        return not core.failed[pba] and (
            self.block_endurance_cycles is None
            or core.erase_count[pba] < self.block_endurance_cycles
        )

    @atomic_section(
        "clearing the page marks, forgetting the append point and "
        "returning the block to the free pool (or retiring it) must be "
        "one step: in between, the block belongs to nobody (valid-page "
        "guard raises before any mutation)"
    )
    def release_block(self, pba):
        """Return a block that holds no valid page to the free pool — or
        retire it, when :meth:`in_service` says it has left service.

        Called after every erase, and at mount for a block out of
        service that holds no mapped page (claimed first).  With a
        configured endurance budget the device shrinks until the pool
        runs dry.
        """
        if self.valid_per_block[pba]:
            raise AddressError("releasing block %d with valid pages" % pba)
        # Resolve the channel (which validates pba) before the first
        # mutation, keeping the section's fallible work up front.
        channel = self._geo.channel_of_block(pba)
        self._forget_page_marks(pba)
        self._sealed[pba] = 0
        self._forget_active(pba)
        if not self.in_service(pba):
            self._kinds[pba] = BlockKind.RETIRED
            self.retired_blocks += 1
            return
        self._kinds[pba] = BlockKind.FREE
        self._free[channel].append(pba)
        self._free_count += 1

    def claim_block(self, pba, kind=BlockKind.DATA):
        """Remove an occupied block from a fresh manager's free pool.

        Crash recovery builds a new :class:`BlockManager` (all blocks
        free) and then claims every block the media shows as programmed.
        No-op if the block is already claimed.
        """
        try:
            self._free[self._geo.channel_of_block(pba)].remove(pba)
        except ValueError:
            return
        self._free_count -= 1
        self.set_kind(pba, kind)

    def condemn_block(self, pba):
        """Stop appending to a block that grew a bad page (program failed).

        The block keeps its kind and valid pages; GC will migrate them
        out and :meth:`release_block` retires it (the ``failed`` column
        makes it a victim via :meth:`sealed_blocks` despite being partial).
        A power cut in between changes nothing: the mount keeps a block
        that still holds a mapped page.
        """
        self._forget_active(pba)

    def seal_block(self, pba):
        """Mark a partial block as never-to-be-appended (GC may claim it)."""
        self._sealed[pba] = 1
        self._forget_active(pba)

    def _forget_active(self, pba):
        # A stream whose (full) active block got reclaimed must open a
        # fresh block on its next allocation, not write into a freed one.
        for state in self._active.values():
            blocks = state["blocks"]
            while pba in blocks:
                blocks[blocks.index(pba)] = None

    # --- Allocation ----------------------------------------------------------

    #: ``stream -> (block kind, striped)``; striped streams spread
    #: consecutive pages across channels.
    _STREAM_LAYOUT = {
        StreamId.USER: (BlockKind.DATA, True),
        StreamId.GC: (BlockKind.DATA, True),
    }

    def allocate_page(self, stream):
        """Next writable PPA for ``stream``, opening a new block if needed."""
        kind, striped = self._STREAM_LAYOUT[stream]
        return self.allocate_page_keyed(stream, kind, striped)

    def allocator(self, stream):
        """:meth:`allocate_page` for ``stream``, as a zero-argument callable."""
        kind, striped = self._STREAM_LAYOUT[stream]
        return partial(self.allocate_page_keyed, stream, kind, striped)

    @atomic_section(
        "append-point rotation, free-block pop and kind tagging are one "
        "allocation step; a competing allocator between them would hand "
        "out the same PPA twice",
        # DeviceFullError escapes with only the round-robin cursor
        # advanced — no block claimed, no slot filled.
    )
    def allocate_page_keyed(self, key, kind, striped=False):
        """Like :meth:`allocate_page` but for a dynamic stream ``key``.

        TimeSSD uses one (unstriped) stream per bloom-filter time segment
        so each segment's deltas land in dedicated delta blocks (§3.6).
        Striped streams rotate across one append block per channel, so
        consecutive pages land on different channels — the layout that
        lets multi-threaded TimeKits recovery overlap reads.
        """
        channels = self._geo.channels if striped else 1
        state = self._active.get(key)
        if state is None:
            state = {"blocks": [None] * channels, "next": 0}
            self._active[key] = state
        slot = state["next"]
        state["next"] = (slot + 1) % channels
        pba = state["blocks"][slot]
        write_pointer = self._core.write_pointer
        if pba is not None and write_pointer[pba] >= self._geo.pages_per_block:
            pba = None
        if pba is None:
            preferred = slot if striped else None
            pba = self._pop_free_block(preferred_channel=preferred)
            self._kinds[pba] = kind
            state["blocks"][slot] = pba
        return pba * self._geo.pages_per_block + write_pointer[pba]

    def adopt_active(self, key, pba, striped=True):
        """Resume appending into a partially-programmed block.

        Crash recovery uses this to re-open the append points that were
        active when power was lost, instead of stranding half-written
        blocks.  Returns False (and adopts nothing) when the stream slot
        for the block's channel is already occupied.
        """
        channels = self._geo.channels if striped else 1
        state = self._active.get(key)
        if state is None:
            state = {"blocks": [None] * channels, "next": 0}
            self._active[key] = state
        slot = self._geo.channel_of_block(pba) % channels if striped else 0
        if state["blocks"][slot] is not None:
            return False
        state["blocks"][slot] = pba
        self._sealed[pba] = 0
        return True

    def close_stream(self, key):
        """Forget the active block(s) of a dynamic stream (e.g. BF dropped).

        Returns the block that was active (unstriped streams), or None.
        The caller owns reclamation of the returned block.
        """
        state = self._active.pop(key, None)
        if state is None:
            return None
        blocks = [pba for pba in state["blocks"] if pba is not None]
        return blocks[0] if blocks else None

    def stream_blocks(self, key):
        """Current active block for an unstriped ``key`` (or None)."""
        state = self._active.get(key)
        if state is None:
            return None
        blocks = [pba for pba in state["blocks"] if pba is not None]
        return blocks[0] if blocks else None

    def active_blocks(self):
        out = set()
        for state in self._active.values():
            out.update(state["blocks"])
        out.discard(None)
        return out

    # --- Per-page marks (PVT, PRT) -------------------------------------------

    def mark_valid(self, ppa):
        if not 0 <= ppa < self._core.total_pages:
            self._geo.check_ppa(ppa)
        valid = self.valid
        if not valid[ppa]:
            valid[ppa] = 1
            self.valid_per_block[ppa // self._core.pages_per_block] += 1

    def load_valid(self, head_ppa):
        """Mark a fresh PVT from a recovery sweep's LPA-indexed
        ``head_ppa`` column: each head is there once and in range, so no
        per-head test; a table that is not fresh is refused."""
        valid = self.valid
        if 1 in valid:
            raise AddressError("loading the PVT of a table that is not fresh")
        for ppa in head_ppa:
            if ppa != NULL_PPA:
                valid[ppa] = 1
        ppb = self._core.pages_per_block
        self.valid_per_block[:] = array(
            "q", [valid.count(1, lo, lo + ppb) for lo in range(0, len(valid), ppb)]
        )

    def invalidate_page(self, ppa):
        """Clear the PVT bit for ``ppa`` (update/delete made it stale)."""
        if not 0 <= ppa < self._core.total_pages:
            self._geo.check_ppa(ppa)
        valid = self.valid
        if valid[ppa]:
            valid[ppa] = 0
            self.valid_per_block[ppa // self._core.pages_per_block] -= 1

    def is_valid(self, ppa):
        self._geo.check_ppa(ppa)
        return bool(self.valid[ppa])

    def mark_reclaimable(self, ppa):
        """Set the PRT bit of an invalid page; True if newly marked."""
        if not 0 <= ppa < self._core.total_pages:
            self._geo.check_ppa(ppa)
        if self.reclaimable[ppa]:
            return False
        self.reclaimable[ppa] = 1
        return True

    def valid_count(self, pba):
        return self.valid_per_block[pba]

    def invalid_count(self, pba):
        """Programmed-but-stale page count (the BST invalid counter)."""
        return self._core.write_pointer[pba] - self.valid_per_block[pba]

    def kind(self, pba):
        return self._kinds[pba]

    def set_kind(self, pba, kind):
        self._kinds[pba] = kind

    # --- Victim selection ----------------------------------------------------

    # The three walks below share one sealed test, inlined in each (GC
    # runs them once per round over every block): a block is a candidate
    # when it is in use (not FREE/RETIRED), of the requested kind, and
    # takes no more programs — full, force-sealed, or grown bad.

    def sealed_blocks(self, kind=None):
        """PBAs of full, non-free blocks (optionally of one kind), ascending.

        A block that is still a stream's append point but already full
        counts as sealed — nothing more will ever be written to it.  So
        do force-sealed partial blocks (crash recovery orphans) and
        grown-bad blocks awaiting retirement: both take no more programs.
        """
        write_pointer = self._core.write_pointer
        failed = self._core.failed
        sealed = self._sealed
        full = self._geo.pages_per_block
        free, retired = BlockKind.FREE, BlockKind.RETIRED
        return [
            pba
            for pba, block_kind in enumerate(self._kinds)
            if block_kind is not free
            and block_kind is not retired
            and (kind is None or block_kind is kind)
            and (write_pointer[pba] >= full or sealed[pba] or failed[pba])
        ]

    def select_greedy_victim(self, kind=BlockKind.DATA):
        """Sealed block of ``kind`` with the most invalid pages, or None
        (lowest PBA among equals)."""
        best_pba = None
        best_invalid = 0
        write_pointer = self._core.write_pointer
        failed = self._core.failed
        full = self._geo.pages_per_block
        free, retired = BlockKind.FREE, BlockKind.RETIRED
        kinds, sealed = self._kinds, self._sealed
        # Each block's invalid count, in one C-level pass over the columns.
        invalid_counts = map(operator.sub, write_pointer, self.valid_per_block)
        for pba, invalid in enumerate(invalid_counts):
            if invalid <= best_invalid:
                continue  # cannot win: skip the sealed test altogether
            block_kind = kinds[pba]
            if block_kind is free or block_kind is retired:
                continue
            if kind is not None and block_kind is not kind:
                continue
            if write_pointer[pba] >= full or sealed[pba] or failed[pba]:
                best_invalid = invalid
                best_pba = pba
        return best_pba

    def select_cost_benefit_victim(self, now_us, kind=BlockKind.DATA):
        """LFS-style cost-benefit victim: maximize (1-u)*age / (1+u).

        ``u`` is the block\'s valid fraction (the migration cost) and
        ``age`` is time since its last program — old, mostly-invalid
        blocks win, which beats pure greed under hot/cold skew because
        cold blocks are cleaned while their garbage is still garbage.
        """
        best_pba = None
        best_score = 0.0
        write_pointer = self._core.write_pointer
        last_program_us = self._core.last_program_us
        valid_per_block = self.valid_per_block
        failed = self._core.failed
        sealed = self._sealed
        full = self._geo.pages_per_block
        free, retired = BlockKind.FREE, BlockKind.RETIRED
        for pba, block_kind in enumerate(self._kinds):
            programmed = write_pointer[pba]
            valid = valid_per_block[pba]
            if programmed == 0 or programmed == valid:
                continue  # nothing programmed, or nothing stale to gain
            if block_kind is free or block_kind is retired:
                continue
            if kind is not None and block_kind is not kind:
                continue
            if not (programmed >= full or sealed[pba] or failed[pba]):
                continue
            u = valid / programmed
            age = max(1, now_us - last_program_us[pba])
            score = (1.0 - u) * age / (1.0 + u)
            if score > best_score:
                best_score = score
                best_pba = pba
        return best_pba

    def select_victim(self, policy, now_us, kind=BlockKind.DATA):
        """Dispatch on the configured GC victim policy."""
        if policy == "greedy":
            return self.select_greedy_victim(kind)
        if policy == "cost_benefit":
            return self.select_cost_benefit_victim(now_us, kind)
        raise AddressError("unknown GC policy %r" % policy)

    def utilization(self):
        """Fraction of non-free blocks."""
        total = self._geo.total_blocks
        return (total - self._free_count) / total
