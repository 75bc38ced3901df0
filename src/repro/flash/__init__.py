"""NAND flash device model.

This package is the hardware substrate of the reproduction: a functional
model of a multi-channel NAND flash device with erase-before-write
semantics, per-page out-of-band (OOB) metadata, a configurable latency
model, and per-channel occupancy timelines that expose the internal
parallelism TimeSSD exploits for state queries.
"""

from repro.common.errors import UncorrectableReadError
from repro.flash.device import FlashDevice
from repro.flash.reliability import FlashReliability
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBMetadata, PageState, NULL_PPA
from repro.flash.timing import ChannelTimelines, FlashTiming

__all__ = [
    "FlashDevice",
    "FlashGeometry",
    "FlashTiming",
    "ChannelTimelines",
    "OOBMetadata",
    "PageState",
    "NULL_PPA",
    "FlashReliability",
    "UncorrectableReadError",
]
