"""Demand-paged mapping (DFTL) with timed translation I/O."""

import pytest

from repro.ftl import recovery as ftl_recovery
from repro.timessd import recovery as timessd_recovery

from tests.conftest import make_regular_ssd, make_timessd


def test_fully_cached_mapping_charges_nothing():
    ssd = make_regular_ssd()
    for lpa in range(64):
        ssd.write(lpa)
        ssd.read(lpa)
    assert ssd.mapping.translation_reads == 0
    assert ssd.mapping.translation_writes == 0


def test_dirty_evictions_write_translation_pages():
    ssd = make_regular_ssd(mapping_cache_entries=4)
    for lpa in range(64):
        ssd.write(lpa)  # every entry is dirtied, then evicted
    assert ssd.mapping.translation_writes > 0


def test_hot_working_set_hits_cache():
    ssd = make_regular_ssd(mapping_cache_entries=16)
    for _ in range(20):
        for lpa in range(8):  # fits comfortably in the cache
            ssd.write(lpa)
    # Only compulsory misses, no steady-state translation traffic.
    assert ssd.mapping.translation_reads <= 16


def test_reads_also_charge_misses():
    ssd = make_regular_ssd(mapping_cache_entries=4)
    for lpa in range(32):
        ssd.write(lpa)
    before = ssd.mapping.translation_reads
    latencies = []
    for lpa in range(32):
        _data, response = ssd.read(lpa)
        latencies.append(response)
    assert ssd.mapping.translation_reads > before
    # Some reads paid a translation fetch on top of the data read.
    assert max(latencies) >= 2 * ssd.device.timing.read_us


@pytest.mark.parametrize(
    "make, recovery",
    [(make_regular_ssd, ftl_recovery), (make_timessd, timessd_recovery)],
    ids=["regular", "timessd"],
)
def test_recovery_bills_no_translation_io(make, recovery):
    """Recovery fills the L2P from the OOB sweep — no translation page
    is read or written for it, so a mounted device starts with a cold,
    clean cache and the first command pays for its own miss only (the
    rebuild used to go through ``update``: one miss per LPA, one dirty
    write-back per eviction, all billed to whoever came next)."""
    ssd = make(mapping_cache_entries=8)
    for lpa in range(100):
        ssd.write(lpa)
        ssd.clock.advance(200)
    recovery.simulate_power_loss(ssd)
    stats = recovery.rebuild_from_flash(ssd)
    assert stats["mapped_lpas"] == 100
    mapping = ssd.mapping
    assert (mapping.translation_reads, mapping.translation_writes) == (0, 0)
    assert not mapping._dirty and not mapping._cache

    timing = ssd.device.timing
    one_miss_us = 2 * (timing.read_us + timing.bus_transfer_us)
    _data, cold_us = ssd.read(5)
    assert cold_us <= one_miss_us
    _data, warm_us = ssd.read(5)
    assert warm_us < cold_us
    assert mapping.translation_reads == 1
