"""Block lifecycle management: free pool, active blocks, BST and PVT.

Implements the paper's block status table (BST, per-block status and
invalid-page counts — extended by TimeSSD to mark delta blocks) and page
validity table (PVT, per-page valid bits).  Free blocks are handed out
round-robin across channels so sequential allocation stripes the device.
"""

import enum
from collections import deque

from repro.common.atomic import atomic_section
from repro.common.errors import AddressError, DeviceFullError


class BlockKind(enum.Enum):
    """What a block currently holds (the BST 'status' column)."""

    FREE = "free"
    DATA = "data"
    DELTA = "delta"  # TimeSSD: blocks holding compressed version deltas
    TRANSLATION = "translation"
    RETIRED = "retired"  # wore out its P/E budget; never used again


class StreamId(enum.Enum):
    """Independent append points.

    Host writes, GC migrations and delta writes each get their own active
    block so GC does not mix retained history into fresh user blocks.
    """

    USER = "user"
    GC = "gc"
    DELTA = "delta"

    # Members are singletons compared by identity, so the identity hash
    # is exact — and, unlike ``Enum.__hash__``, not a Python-level call
    # on each of the two dict lookups every page allocation makes.
    __hash__ = object.__hash__


class _BlockInfo:
    __slots__ = ("kind", "valid", "valid_count", "sealed")

    def __init__(self, pages_per_block):
        self.kind = BlockKind.FREE
        self.valid = bytearray(pages_per_block)
        self.valid_count = 0
        # Force-sealed: treated as full for victim selection even though
        # pages remain (orphaned partial blocks after crash recovery).
        self.sealed = False


class BlockManager:
    """Free-space accounting and page allocation over a flash device."""

    def __init__(self, device, block_endurance_cycles=None):
        self.device = device
        self._core = device.core
        self.block_endurance_cycles = block_endurance_cycles
        self.retired_blocks = 0
        geo = device.geometry
        self._geo = geo
        self._info = [_BlockInfo(geo.pages_per_block) for _ in range(geo.total_blocks)]
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

    @atomic_section(
        "clearing validity, forgetting the append point and returning "
        "the block to the free pool (or retiring it) must be one step: "
        "in between, the block belongs to nobody (valid-page guard "
        "raises before any mutation)"
    )
    def release_block(self, pba):
        """Return an erased block to the free pool — or retire it.

        With a configured endurance budget, a block that has used up its
        program/erase cycles is retired instead of reused (bad-block
        management); the device shrinks until the pool runs dry.
        """
        info = self._info[pba]
        if info.valid_count:
            raise AddressError("releasing block %d with valid pages" % pba)
        # Resolve the channel (which validates pba) before the first
        # mutation, keeping the section's fallible work up front.
        channel = self._geo.channel_of_block(pba)
        info.valid[:] = bytes(len(info.valid))
        info.sealed = False
        self._forget_active(pba)
        if self._core.failed[pba] or (
            self.block_endurance_cycles is not None
            and self._core.erase_count[pba] >= self.block_endurance_cycles
        ):
            info.kind = BlockKind.RETIRED
            self.retired_blocks += 1
            return
        info.kind = BlockKind.FREE
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
        """
        self._forget_active(pba)

    @atomic_section(
        "pool removal, validity clear and RETIRED marking commit "
        "together; a half-retired block could be re-allocated"
    )
    def retire_failed_block(self, pba):
        """Take a known-bad block out of service immediately.

        Used by crash recovery when the media says ``failed`` but the
        rebuilt firmware tables have no record of the block: it must not
        re-enter the free pool.  No-op if already retired.
        """
        info = self._info[pba]
        if info.kind is BlockKind.RETIRED:
            return
        if info.kind is BlockKind.FREE:
            try:
                self._free[self._geo.channel_of_block(pba)].remove(pba)
                self._free_count -= 1
            except ValueError:
                pass
        info.valid[:] = bytes(len(info.valid))
        info.valid_count = 0
        info.sealed = False
        self._forget_active(pba)
        info.kind = BlockKind.RETIRED
        self.retired_blocks += 1

    def seal_block(self, pba):
        """Mark a partial block as never-to-be-appended (GC may claim it)."""
        self._info[pba].sealed = True
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
        StreamId.DELTA: (BlockKind.DELTA, False),
    }

    def allocate_page(self, stream):
        """Next writable PPA for ``stream``, opening a new block if needed."""
        kind, striped = self._STREAM_LAYOUT[stream]
        return self.allocate_page_keyed(stream, kind, striped)

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
            self._info[pba].kind = kind
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
        self._info[pba].sealed = False
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

    def active_block(self, stream):
        return self.stream_blocks(stream)

    def active_blocks(self):
        out = set()
        for state in self._active.values():
            out.update(state["blocks"])
        out.discard(None)
        return out

    # --- Validity tracking (PVT) ---------------------------------------------

    def mark_valid(self, ppa):
        if not 0 <= ppa < self._core.total_pages:
            self._geo.check_ppa(ppa)
        pages_per_block = self._core.pages_per_block
        info = self._info[ppa // pages_per_block]
        offset = ppa % pages_per_block
        if not info.valid[offset]:
            info.valid[offset] = 1
            info.valid_count += 1

    def mark_valid_many(self, ppas):
        """:meth:`mark_valid` over an iterable of PPAs, in order (the
        recovery load: one call per rebuild instead of one per head)."""
        core = self._core
        total_pages = core.total_pages
        pages_per_block = core.pages_per_block
        blocks = self._info
        for ppa in ppas:
            if not 0 <= ppa < total_pages:
                self._geo.check_ppa(ppa)
            info = blocks[ppa // pages_per_block]
            offset = ppa % pages_per_block
            if not info.valid[offset]:
                info.valid[offset] = 1
                info.valid_count += 1

    def invalidate_page(self, ppa):
        """Clear the PVT bit for ``ppa`` (update/delete made it stale)."""
        if not 0 <= ppa < self._core.total_pages:
            self._geo.check_ppa(ppa)
        pages_per_block = self._core.pages_per_block
        info = self._info[ppa // pages_per_block]
        offset = ppa % pages_per_block
        if info.valid[offset]:
            info.valid[offset] = 0
            info.valid_count -= 1

    def is_valid(self, ppa):
        pba, offset = self._geo.locate(ppa)
        return bool(self._info[pba].valid[offset])

    def valid_bits(self, pba):
        """The block's PVT column (one byte per page offset), read-only
        by convention: per-block loops index it instead of calling
        :meth:`is_valid` once per page."""
        return self._info[pba].valid

    def valid_count(self, pba):
        return self._info[pba].valid_count

    def invalid_count(self, pba):
        """Programmed-but-stale page count (the BST invalid counter)."""
        return self._core.write_pointer[pba] - self._info[pba].valid_count

    def kind(self, pba):
        return self._info[pba].kind

    def set_kind(self, pba, kind):
        self._info[pba].kind = kind

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
        full = self._geo.pages_per_block
        free, retired = BlockKind.FREE, BlockKind.RETIRED
        return [
            pba
            for pba, info in enumerate(self._info)
            if info.kind is not free
            and info.kind is not retired
            and (kind is None or info.kind is kind)
            and (write_pointer[pba] >= full or info.sealed or failed[pba])
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
        for pba, info in enumerate(self._info):
            programmed = write_pointer[pba]
            invalid = programmed - info.valid_count
            if invalid <= best_invalid:
                continue  # cannot win: skip the sealed test altogether
            block_kind = info.kind
            if block_kind is free or block_kind is retired:
                continue
            if kind is not None and block_kind is not kind:
                continue
            if programmed >= full or info.sealed or failed[pba]:
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
        failed = self._core.failed
        full = self._geo.pages_per_block
        free, retired = BlockKind.FREE, BlockKind.RETIRED
        for pba, info in enumerate(self._info):
            programmed = write_pointer[pba]
            valid = info.valid_count
            if programmed == 0 or programmed == valid:
                continue  # nothing programmed, or nothing stale to gain
            block_kind = info.kind
            if block_kind is free or block_kind is retired:
                continue
            if kind is not None and block_kind is not kind:
                continue
            if not (programmed >= full or info.sealed or failed[pba]):
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
