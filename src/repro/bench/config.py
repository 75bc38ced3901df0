"""Standard device configurations for the benchmark suite.

The paper's board is a 1 TB SSD; the bench device scales everything down
(~48 MiB of raw flash) so every figure regenerates in minutes on a
laptop while keeping the ratios that matter: over-provisioning fraction,
capacity usage (50%/80%), and write volume relative to spare capacity.
"""

from repro.common.units import DAY_US, SECOND_US
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD


def bench_geometry(**overrides):
    params = dict(
        channels=8,
        blocks_per_plane=48,
        pages_per_block=32,
        page_size=4096,
    )
    params.update(overrides)
    return FlashGeometry(**params)


def make_bench_regular(**overrides):
    params = dict(geometry=bench_geometry(), timing=FlashTiming())
    params.update(overrides)
    return RegularSSD(SSDConfig(**params))


def make_bench_timessd(**overrides):
    params = dict(
        geometry=bench_geometry(),
        timing=FlashTiming(),
        # Paper default: 3-day retention floor.
        retention_floor_us=3 * DAY_US,
        # Finer segments than the firmware default so the adaptive window
        # moves in sub-day steps at bench scale.
        bloom_capacity=512,
        # Finer Equation-1 periods than the firmware default: at bench
        # write rates 1024-write periods would span days of trace time.
        gc_overhead_period_writes=128,
        # Calibrated threshold: the scaled-down device has a much higher
        # baseline GC + delta-compression cost per write than the paper's
        # 1 TB board, so the paper's TH=0.2 would pin every volume at the
        # floor.  1.0 reproduces the published retention bands.
        gc_overhead_threshold=1.0,
        content_mode=ContentMode.MODELED,
    )
    params.update(overrides)
    return TimeSSD(TimeSSDConfig(**params))


def prefill(ssd, working_pages, gap_us=200):
    """Warm up: write the working set once so GC has real state.

    The paper warms the device "to ensure GC operations are triggered"
    before each experiment; the prefill finishes within simulated
    seconds, negligible against multi-day traces.
    """
    for lpa in range(working_pages):
        ssd.write(lpa)
        if gap_us:
            ssd.clock.advance(gap_us)
    return ssd
