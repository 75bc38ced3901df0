"""Fault-injection matrix for the fsck (`timessd/verify.py`).

Each parametrized case corrupts exactly one audited structure —
mapping/PVT agreement, version-chain order and walkability, the PRT, the free pool,
the retention census, segment/delta agreement — and asserts the
auditor reports *that* violation class and nothing else.  The
``trimmed-*`` cases damage the history of an LPA that is no longer
mapped, which time queries and rollback still walk.
"""

import random
import re

import pytest

from repro.common.units import SECOND_US
from repro.flash.page import OOBMetadata
from repro.ftl.block_manager import BlockKind
from repro.timessd.verify import DeviceAuditor

from tests.conftest import make_timessd, small_geometry


def quiet_ssd():
    """A device with a little history: cheap for structural corruptions."""
    ssd = make_timessd()
    for lpa in range(4):
        ssd.write(lpa)
        ssd.clock.advance(1000)
    ssd.write(3)  # give LPA 3 an old version
    ssd.clock.advance(1000)
    return ssd


def churned_ssd():
    """A device GC'd hard enough to carry live delta records."""
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=48),
        retention_floor_us=2 * SECOND_US,
        bloom_segment_max_age_us=SECOND_US,
    )
    rng = random.Random(7)
    working = ssd.logical_pages // 2
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(300)
    for _ in range(working * 4):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(1500)
    return ssd


def live_delta_record(ssd):
    for lpa in range(ssd.logical_pages):
        record = ssd.index.delta_head(lpa)
        if record is not None and not record.dropped:
            return record
    raise AssertionError("churn produced no live delta records")


def trimmed_ssd():
    """:func:`churned_ssd` with the LPA of :func:`live_delta_record`
    trimmed: no longer mapped, its history still reachable by time
    queries and rollback, and still the record the corruptors damage."""
    ssd = churned_ssd()
    lpa = live_delta_record(ssd).lpa
    ssd.trim(lpa)
    assert lpa in ssd.lpas_with_history()
    assert live_delta_record(ssd).lpa == lpa
    return ssd


# --- Corruptors: each damages exactly one audited structure -------------------


def corrupt_mapping_head(ssd):
    ssd.block_manager.invalidate_page(ssd.mapping.lookup(3))


def corrupt_mapping_lpa(ssd):
    ssd.device.core.lpa[ssd.mapping.lookup(3)] = 2  # the head claims LPA 2


def corrupt_orphan_valid_page(ssd):
    old_ppa = ssd.device.peek_page(ssd.mapping.lookup(3)).oob.back_pointer
    ssd.block_manager.mark_valid(old_ppa)


def corrupt_chain_order(ssd):
    # A delta version stamped *after* the head breaks newest-first order
    # and the §3.7 delta-older-than-data invariant.  A trimmed LPA's
    # chain is headed by its tombstone: the version behind it is damaged.
    record = live_delta_record(ssd)
    if record.data_back is not None:
        record = record.back
    record.version_ts = ssd.clock.now_us + 10_000_000


def corrupt_delta_address(ssd):
    # A delta record pointing past the device: the walk itself raises,
    # and the audit reports it against the LPA instead of crashing.
    live_delta_record(ssd).flash_ppa = ssd.device.geometry.total_pages


def corrupt_prt(ssd):
    ssd.block_manager.mark_reclaimable(ssd.mapping.lookup(3))


def corrupt_free_pool_count(ssd):
    ssd.block_manager._free_count += 1


def corrupt_free_pool_unerased(ssd):
    geo = ssd.device.geometry
    for pba in range(geo.total_blocks):
        if ssd.block_manager.kind(pba) is BlockKind.FREE:
            ssd.device.core.program(
                pba, 0, b"ghost", OOBMetadata(lpa=0, timestamp_us=0)
            )
            return
    raise AssertionError("no FREE block to corrupt")


def corrupt_retention_census(ssd):
    ssd.retained_pages = -1


def corrupt_segment_agreement(ssd):
    # A live delta claiming membership of a segment that never existed.
    live_delta_record(ssd).segment_id = 999_999


CASES = [
    pytest.param(quiet_ssd, corrupt_mapping_head, r"head PPA \d+ not valid", id="mapping-pvt-head"),
    pytest.param(quiet_ssd, corrupt_mapping_lpa, r"head holds LPA 2", id="mapping-pvt-wrong-lpa"),
    pytest.param(quiet_ssd, corrupt_orphan_valid_page, r"not any LPA's head", id="mapping-pvt-orphan"),
    pytest.param(churned_ssd, corrupt_chain_order, r"chain", id="chain-order"),
    pytest.param(trimmed_ssd, corrupt_chain_order, r"chain", id="trimmed-chain-order"),
    pytest.param(churned_ssd, corrupt_delta_address, r"LPA \d+ chain cannot be walked", id="chain-unwalkable"),
    pytest.param(quiet_ssd, corrupt_prt, r"reclaimable page \d+ is marked valid", id="prt"),
    pytest.param(quiet_ssd, corrupt_free_pool_count, r"free-block count", id="free-pool-count"),
    pytest.param(quiet_ssd, corrupt_free_pool_unerased, r"FREE block \d+ is not erased", id="free-pool-unerased"),
    pytest.param(quiet_ssd, corrupt_retention_census, r"negative retained-page", id="retention-census"),
    pytest.param(churned_ssd, corrupt_segment_agreement, r"in dead segment", id="segment-agreement"),
    pytest.param(trimmed_ssd, corrupt_segment_agreement, r"in dead segment", id="trimmed-segment-agreement"),
]


@pytest.mark.parametrize("build, corrupt, pattern", CASES)
def test_auditor_reports_exactly_the_corrupted_class(build, corrupt, pattern):
    ssd = build()
    assert DeviceAuditor(ssd).audit().clean, "device must start clean"
    corrupt(ssd)
    report = DeviceAuditor(ssd).audit()
    assert not report.clean, "corruption of %s went undetected" % pattern
    for violation in report.violations:
        assert re.search(pattern, violation), (
            "expected only %r-class violations, got: %s"
            % (pattern, report.violations)
        )
