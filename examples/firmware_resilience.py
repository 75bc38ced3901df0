#!/usr/bin/env python3
"""Firmware resilience: power loss, self-audit, encrypted history, aging.

Four features beyond the basic time-travel property:

1. after a power cut, every RAM table is rebuilt from the OOB metadata
   the firmware wrote with each page (the reason the OOB layout of
   paper §3.7 exists);
2. the device can audit its own cross-structure invariants (an fsck);
3. with a retention key (paper §3.10), history is stored encrypted —
   readable only after unlocking, ciphertext to a chip-off attacker;
4. flash media ages — charge leaks over months, queries disturb
   neighbouring cells — and the self-healing firmware (read-retry
   ladder + patrol scrub + data refresh, docs/RELIABILITY.md) keeps a
   device healthy that would otherwise lose data.

Run:  python examples/firmware_resilience.py
"""

import random

from repro.common.errors import QueryError, UncorrectableReadError
from repro.common.units import HOUR_US, SECOND_US
from repro.flash import FlashGeometry
from repro.flash.reliability import FlashReliability
from repro.timessd import ContentMode, TimeSSD, TimeSSDConfig
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.verify import DeviceAuditor

KEY = b"a key only the owner knows"


def main():
    ssd = TimeSSD(
        TimeSSDConfig(
            geometry=FlashGeometry(
                channels=8, blocks_per_plane=32, pages_per_block=32, page_size=2048
            ),
            content_mode=ContentMode.REAL,
            retention_floor_us=24 * HOUR_US,
            retention_key=KEY,
        )
    )
    page = lambda text: text.encode().ljust(2048, b"\0")
    rng = random.Random(7)

    # Build up state and history.
    for round_no in range(6):
        for lpa in range(40):
            ssd.write(lpa, page("round-%d lpa-%d" % (round_no, lpa)))
        ssd.clock.advance(20 * SECOND_US)
    print("written 6 generations of 40 pages;",
          "%d versions retained" % ssd.retained_pages)

    # 1. Power loss: all RAM tables gone, flash intact.
    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)
    print("\npower loss -> rebuild from OOB metadata:")
    print("  remapped %d LPAs, %d retained pages, %d delta records"
          % (stats["mapped_lpas"], stats["retained_pages"], stats["delta_records"]))
    current, _ = ssd.read(7)
    print("  LPA 7 reads back: %r" % current.rstrip(b"\0").decode())

    # 2. Self-audit.
    report = DeviceAuditor(ssd).audit(sample_lpa_stride=3)
    print("\nself-audit: %d checks -> %s"
          % (report.checks_run, "clean" if report.clean else report.violations))

    # 3. Encrypted history: locked by default after (re)boot.
    try:
        ssd.version_chain(7)
        print("\nERROR: history should have been locked!")
    except QueryError as exc:
        print("\nhistory while locked: %s" % exc)
    ssd.unlock_retention(KEY)
    versions, _ = ssd.version_chain(7)
    print("after unlock: %d versions of LPA 7, oldest = %r"
          % (len(versions), versions[-1].data.rstrip(b"\0").decode()))

    # 4. Media aging: the same month, with and without the defenses.
    aging_drill()


def aging_device(defended, seed=0x50A4):
    """A small TimeSSD on deliberately leaky flash.

    Fresh pages sit far under the 16-bit ECC budget; after a few
    hundred hours of retention leakage a page crosses it, so a month
    without refresh must lose data.
    """
    config = TimeSSDConfig(
        geometry=FlashGeometry(
            channels=4, blocks_per_plane=16, pages_per_block=16
        ),
        retention_floor_us=2 * SECOND_US,
        bloom_capacity=128,
        bloom_segment_max_age_us=SECOND_US // 2,
        reliability=FlashReliability(
            raw_bit_error_rate=2e-4,
            ecc_correctable_bits=16,
            retention_ber_per_hour=0.05,
            read_disturb_ber_per_read=1e-3,
            retry_ber_factor=0.5,
            seed=seed,
        ),
        patrol_scrub=defended,
        read_retry_limit=4 if defended else 0,
    )
    return TimeSSD(config)


def aging_drill(seed=0x50A4):
    """A simulated month of retention leakage under query-heavy reads.

    Run twice — defenses on, defenses off — over the identical seeded
    workload: write a working set, then every ~30 simulated hours read
    it back (each sense also read-disturbs the block) with a little
    write churn.  With the retry ladder and patrol scrub enabled the
    firmware quietly refreshes pages before they drift past the ECC
    budget; with them disabled the same media loses data.
    """
    print("\naging drill: a simulated month on leaky flash")
    working_set, epochs, gap_us = 48, 24, 15_000  # 24 x 30 h = 30 days
    for defended in (True, False):
        ssd = aging_device(defended, seed)
        rng = random.Random(seed)
        errors = 0
        for lpa in range(working_set):
            ssd.write(lpa)
            ssd.clock.advance(gap_us)
        for _epoch in range(epochs):
            ssd.clock.advance(30 * HOUR_US)
            for lpa in range(working_set):
                try:
                    ssd.read(lpa)
                except UncorrectableReadError:
                    errors += 1
                ssd.clock.advance(gap_us)
            for _ in range(4):
                ssd.write(rng.randrange(working_set))
                ssd.clock.advance(gap_us)
        c = ssd.obs.metrics.snapshot()["counters"]
        label = "scrub+retry ON " if defended else "scrub+retry OFF"
        print("  %s: %d unreadable pages | %d retry-ladder reads, "
              "%d patrol reads, %d pages refreshed, %d ECC-corrected reads"
              % (label, errors,
                 c.get("reliability.retry_reads", 0),
                 c.get("scrub.patrol_reads", 0),
                 c.get("scrub.refreshed_valid", 0)
                 + c.get("scrub.refreshed_retained", 0),
                 c.get("flash.ecc.corrected_reads", 0)))
        if defended:
            assert errors == 0, "defended month must stay readable"
        else:
            assert errors > 0, "undefended month should demonstrate loss"


if __name__ == "__main__":
    main()
