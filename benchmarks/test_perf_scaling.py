"""The 10x device-size unlock: 0.5 GiB geometry, checkpointed recovery.

ROADMAP item 2's acceptance run.  The seed's object-per-page flash
array topped out around 48 MiB; the columnar core must drive a device
ten times that size through the canonical churn workload (the CI
step's timeout bounds the run), and checkpointed
``rebuild_from_flash`` must scan under 25% of the blocks a full OOB
sweep would visit — on the regular FTL and on TimeSSD, whose mount also
relinks the delta chains and rebuilds the PRT and the blooms.
"""

import random

from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA
from repro.ftl import recovery as ftl_recovery
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timessd import recovery as timessd_recovery
from repro.timessd.config import TimeSSDConfig
from repro.timessd.ssd import TimeSSD
from repro.timessd.verify import DeviceAuditor

GIB = 1024**3


def big_geometry():
    """0.5 GiB raw: 10.7x the 48 MiB bench geometry."""
    return FlashGeometry(
        channels=8, blocks_per_plane=256, pages_per_block=64, page_size=4096
    )


def churned(device, config):
    """Canonical churn: sequential fill of a quarter of the logical
    space, then seeded uniform updates — the same shape as the bench
    smoke.  Returns the device and its working-set size."""
    ssd = device(config(geometry=big_geometry(), checkpoint_interval_blocks=16))
    rng = random.Random(1)
    working = ssd.logical_pages // 4
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(300)
    for _ in range(20_000):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(300)
    return ssd, working


def l2p(ssd, working):
    lookup = ssd.mapping.lookup
    return {lpa: lookup(lpa) for lpa in range(working) if lookup(lpa) != NULL_PPA}


def test_10x_device_checkpointed_recovery():
    assert_checkpointed_recovery(RegularSSD, SSDConfig, ftl_recovery)


def test_10x_timessd_checkpointed_recovery():
    assert_checkpointed_recovery(TimeSSD, TimeSSDConfig, timessd_recovery)


def assert_checkpointed_recovery(device, config, recovery):
    geometry = big_geometry()
    assert geometry.raw_capacity_bytes >= GIB // 2
    ssd, working = churned(device, config)

    counters = ssd.obs.metrics.snapshot()["counters"]
    assert counters["recovery.checkpoint.written"] > 0
    mapping_before = l2p(ssd, working)
    assert len(mapping_before) == working

    recovery.simulate_power_loss(ssd)
    stats = recovery.rebuild_from_flash(ssd)

    # Exact equivalence with the full scan, at a fraction of the work.
    assert l2p(ssd, working) == mapping_before
    full_scan_blocks = stats["scanned_blocks"] + stats["summarized_blocks"]
    assert full_scan_blocks > 0
    scan_fraction = stats["scanned_blocks"] / full_scan_blocks
    print(
        "\n10x geometry, %s: %.2f GiB raw, %d blocks; recovery scanned "
        "%d/%d blocks (%.1f%%), %d from checkpoint seq %s; %d LPAs mapped"
        % (
            device.__name__,
            geometry.raw_capacity_bytes / GIB,
            geometry.total_blocks,
            stats["scanned_blocks"],
            full_scan_blocks,
            100 * scan_fraction,
            stats["summarized_blocks"],
            stats["checkpoint_seq"],
            stats["mapped_lpas"],
        )
    )
    assert scan_fraction < 0.25
    if isinstance(ssd, TimeSSD):
        report = DeviceAuditor(ssd).audit(sample_lpa_stride=7)
        assert report.clean, report.violations

    # Still a working device afterwards.
    for lpa in range(64):
        ssd.write(lpa)
        ssd.clock.advance(300)
