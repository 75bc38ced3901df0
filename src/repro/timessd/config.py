"""Configuration for TimeSSD."""

import enum
from dataclasses import dataclass, field

from repro.common.units import DAY_US, HOUR_US
from repro.ftl.ssd import SSDConfig


class ContentMode(enum.Enum):
    """How page content (and thus delta compressibility) is represented.

    ``REAL``: hosts write actual ``bytes``; deltas are XOR-then-LZF over
    real content (file-system benchmarks use this).

    ``MODELED``: hosts write identity tokens; delta sizes are drawn from a
    Gaussian compression-ratio model.  This is the paper's own method for
    the MSR/FIU traces, which carry no data content (§5.2: "we use 0.2 as
    the default compression ratio").
    """

    REAL = "real"
    MODELED = "modeled"


@dataclass
class TimeSSDConfig(SSDConfig):
    """TimeSSD knobs, defaulting to the paper's published choices."""

    # §3.4: guaranteed lower bound on retention duration (3 days).
    retention_floor_us: int = 3 * DAY_US
    # §3.5: invalidation-tracking group size N (16) and BF sizing.
    bloom_group_size: int = 16
    bloom_capacity: int = 4096
    # Segments also seal after this long, keeping the adaptive window's
    # shrink granularity bounded even when grouping dedupes most adds.
    bloom_segment_max_age_us: int = 6 * HOUR_US
    # §3.8 / Equation 1: GC-overhead threshold TH (20% of a page-write
    # cost) estimated over periods of N_fixed user page writes.
    gc_overhead_threshold: float = 0.20
    gc_overhead_period_writes: int = 1024
    # §3.6: compress in background when the idle predictor
    # (repro.common.idle) forecasts a long enough gap.
    background_compression: bool = True
    # §3.6: delta compression of retained versions.
    delta_compression: bool = True
    content_mode: ContentMode = ContentMode.MODELED
    # §3.10: optional user key; when set, retained versions are stored
    # encrypted and queries require unlocking with the key.
    retention_key: bytes = None
    seed: int = 0x5EED

    def __post_init__(self):
        super().__post_init__()
        # TimeSSD needs more GC headroom than a regular SSD: one reclaim
        # can open several append blocks (striped GC stream plus
        # per-segment delta streams) before it erases the victim.
        self.gc_low_watermark = max(
            self.gc_low_watermark,
            self.geometry.channels + 4,
            self.geometry.total_blocks // 64,
        )
        if self.retention_floor_us < 0:
            raise ValueError("retention_floor_us must be non-negative")
        if not 0 < self.gc_overhead_threshold:
            raise ValueError("gc_overhead_threshold must be positive")
