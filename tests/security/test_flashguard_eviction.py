"""FlashGuard retention-queue eviction under space pressure."""

import random

import pytest

from repro.ftl.ssd import SSDConfig
from repro.security import FlashGuardSSD

from tests.conftest import small_geometry


def make_flashguard(**overrides):
    params = dict(geometry=small_geometry(blocks_per_plane=32))
    params.update(overrides)
    return FlashGuardSSD(SSDConfig(**params))


def read_then_overwrite_churn(ssd, working, writes, seed=6):
    """Worst case for FlashGuard: every page is read before overwrite."""
    rng = random.Random(seed)
    for lpa in range(working):
        ssd.write(lpa, b"v0-%d" % lpa)
    for _ in range(writes):
        lpa = rng.randrange(working)
        ssd.read(lpa)
        ssd.write(lpa, b"v-%d-%d" % (lpa, ssd.clock.now_us))
        ssd.clock.advance(500)


def test_eviction_keeps_device_alive():
    ssd = make_flashguard()
    # Far more retained pages than the device could ever hold.
    read_then_overwrite_churn(ssd, ssd.logical_pages // 2, 6000)
    assert ssd.retained_count >= 0
    assert ssd.block_manager.free_block_count > 0


def test_eviction_drops_oldest_first():
    ssd = make_flashguard()
    ssd.write(1, b"ancient")
    ssd.read(1)
    ssd.clock.advance(100)
    ssd.write(1, b"newer")  # retains "ancient"
    ssd.read(1)
    ssd.clock.advance(100)
    ssd.write(1, b"newest")  # retains "newer"
    assert ssd.retained_count == 2
    assert ssd._evict_oldest_retained(fraction=0.5)
    remaining = [
        v for v in ssd._versions_by_lpa.get(1, []) if not v.evicted
    ]
    assert len(remaining) == 1
    # The older version went first.
    restored, _ = ssd.recover_lpas([1], ssd.clock.now_us)
    assert restored[1] == b"newer"


def test_eviction_with_empty_queue_reports_failure():
    ssd = make_flashguard()
    assert not ssd._evict_oldest_retained(fraction=0.5)


def test_retained_version_survives_many_migrations():
    ssd = make_flashguard()
    ssd.write(2, b"keep-me")
    t_clean = ssd.clock.now_us
    ssd.read(2)
    ssd.write(2, b"cipher")
    rng = random.Random(9)
    working = ssd.logical_pages // 2
    # Massive churn elsewhere forces repeated GC migrations.
    for _ in range(working * 6):
        ssd.write(rng.randrange(3, working), b"noise")
        ssd.clock.advance(200)
    restored, _ = ssd.recover_lpas([2], t_clean)
    # Either still retained (and byte-exact) or honestly evicted.
    if 2 in restored:
        assert restored[2] == b"keep-me"
