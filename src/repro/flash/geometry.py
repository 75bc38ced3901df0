"""Flash geometry: channels, chips, planes, blocks, pages.

Physical page addresses (PPAs) and physical block addresses (PBAs) are flat
integers.  Pages are numbered so that consecutive *blocks* round-robin
across channels: block ``b`` lives on channel ``b % channels``.  This gives
the FTL channel-level striping for free when it allocates blocks
round-robin, matching how real FTLs spread load.
"""

from dataclasses import dataclass

from repro.common.errors import AddressError


@dataclass(frozen=True)
class FlashGeometry:
    """Dimensions of the simulated flash array.

    The default is a deliberately small device (256 MiB of raw flash) so
    that month-long trace replays complete quickly; every experiment can
    scale it up.  OOB metadata is stored structurally, not in bytes.
    """

    channels: int = 8
    chips_per_channel: int = 1
    planes_per_chip: int = 1
    blocks_per_plane: int = 128
    pages_per_block: int = 64
    page_size: int = 4096

    def __post_init__(self):
        for name in (
            "channels",
            "chips_per_channel",
            "planes_per_chip",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        # Derived totals, computed once (every address check reads them).
        # Plain instance attributes, not fields: ``==``, ``hash``, ``repr``
        # and ``dataclasses.replace`` stay field-only, and ``replace``
        # recomputes them through this hook.
        total_blocks = (
            self.channels
            * self.chips_per_channel
            * self.planes_per_chip
            * self.blocks_per_plane
        )
        object.__setattr__(self, "total_blocks", total_blocks)
        object.__setattr__(self, "total_pages", total_blocks * self.pages_per_block)

    @property
    def raw_capacity_bytes(self):
        return self.total_pages * self.page_size

    # --- Address arithmetic -------------------------------------------------

    def check_ppa(self, ppa):
        if not 0 <= ppa < self.total_pages:
            raise AddressError("PPA %r out of range [0, %d)" % (ppa, self.total_pages))

    def check_pba(self, pba):
        if not 0 <= pba < self.total_blocks:
            raise AddressError("PBA %r out of range [0, %d)" % (pba, self.total_blocks))

    def locate(self, ppa):
        """``(pba, offset)`` of a PPA from one validated division."""
        if not 0 <= ppa < self.total_pages:
            self.check_ppa(ppa)
        return divmod(ppa, self.pages_per_block)

    def block_of_page(self, ppa):
        """PBA containing the given PPA."""
        if not 0 <= ppa < self.total_pages:
            self.check_ppa(ppa)
        return ppa // self.pages_per_block

    def page_offset(self, ppa):
        """Index of the page within its block."""
        if not 0 <= ppa < self.total_pages:
            self.check_ppa(ppa)
        return ppa % self.pages_per_block

    def first_page_of_block(self, pba):
        if not 0 <= pba < self.total_blocks:
            self.check_pba(pba)
        return pba * self.pages_per_block

    def pages_of_block(self, pba):
        """Range of PPAs belonging to block ``pba``."""
        first = self.first_page_of_block(pba)
        return range(first, first + self.pages_per_block)

    def channel_of_block(self, pba):
        if not 0 <= pba < self.total_blocks:
            self.check_pba(pba)
        return pba % self.channels

    def channel_of_page(self, ppa):
        if not 0 <= ppa < self.total_pages:
            self.check_ppa(ppa)
        return ppa // self.pages_per_block % self.channels

    def chip_of_block(self, pba):
        """(channel, chip) coordinates of a block."""
        if not 0 <= pba < self.total_blocks:
            self.check_pba(pba)
        channels = self.channels
        return (pba % channels, pba // channels % self.chips_per_channel)
