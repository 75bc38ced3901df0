"""The 10x device-size unlock: 0.5 GiB geometry, checkpointed recovery.

ROADMAP item 2's acceptance run.  The seed's object-per-page flash
array topped out around 48 MiB; the columnar core must drive a device
ten times that size through the canonical churn workload (the CI
step's timeout bounds the run), and checkpointed
``rebuild_from_flash`` must scan under 25% of the blocks a full OOB
sweep would visit.
"""

import random

from repro.flash.geometry import FlashGeometry
from repro.ftl.recovery import rebuild_from_flash, simulate_power_loss
from repro.ftl.ssd import RegularSSD, SSDConfig

GIB = 1024**3


def big_geometry():
    """0.5 GiB raw: 10.7x the 48 MiB bench geometry."""
    return FlashGeometry(
        channels=8, blocks_per_plane=256, pages_per_block=64, page_size=4096
    )


def test_10x_device_checkpointed_recovery():
    geometry = big_geometry()
    assert geometry.raw_capacity_bytes >= GIB // 2

    ssd = RegularSSD(
        SSDConfig(geometry=geometry, checkpoint_interval_blocks=16)
    )
    # Canonical churn: sequential fill of half the working set, then
    # seeded uniform updates — the same shape as the bench smoke.
    rng = random.Random(1)
    working = ssd.logical_pages // 4
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(300)
    for _ in range(20_000):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(300)

    counters = ssd.obs.metrics.snapshot()["counters"]
    assert counters["recovery.checkpoint.written"] > 0

    mapping_before = {
        lpa: ssd.mapping.lookup(lpa)
        for lpa in range(working)
        if ssd.mapping.lookup(lpa) is not None
    }

    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)

    # Exact equivalence with the full scan, at a fraction of the work.
    mapping_after = {
        lpa: ssd.mapping.lookup(lpa)
        for lpa in range(working)
        if ssd.mapping.lookup(lpa) is not None
    }
    assert mapping_after == mapping_before
    full_scan_blocks = stats["scanned_blocks"] + stats["summarized_blocks"]
    assert full_scan_blocks > 0
    scan_fraction = stats["scanned_blocks"] / full_scan_blocks
    print(
        "\n10x geometry: %.2f GiB raw, %d blocks; recovery scanned "
        "%d/%d blocks (%.1f%%), %d from checkpoint seq %s"
        % (
            geometry.raw_capacity_bytes / GIB,
            geometry.total_blocks,
            stats["scanned_blocks"],
            full_scan_blocks,
            100 * scan_fraction,
            stats["summarized_blocks"],
            stats["checkpoint_seq"],
        )
    )
    assert scan_fraction < 0.25

    # Still a working device afterwards.
    for lpa in range(64):
        ssd.write(lpa)
        ssd.clock.advance(300)
