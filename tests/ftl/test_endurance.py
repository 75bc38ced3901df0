"""Block endurance and bad-block retirement."""

import random

import pytest

from repro.common.errors import DeviceFullError
from repro.ftl.block_manager import BlockKind

from tests.conftest import make_regular_ssd


def churn(ssd, working, writes, seed=5):
    rng = random.Random(seed)
    for lpa in range(working):
        ssd.write(lpa)
    for _ in range(writes):
        ssd.write(rng.randrange(working))


def test_unlimited_endurance_never_retires():
    ssd = make_regular_ssd()
    churn(ssd, ssd.logical_pages // 2, 4000)
    assert ssd.block_manager.retired_blocks == 0


def test_worn_blocks_are_retired():
    ssd = make_regular_ssd(block_endurance_cycles=4)
    try:
        churn(ssd, ssd.logical_pages // 2, 8000)
    except DeviceFullError:
        pass  # wearing completely out is fine for this check
    assert ssd.block_manager.retired_blocks > 0
    retired = [
        pba
        for pba in range(ssd.device.geometry.total_blocks)
        if ssd.block_manager.kind(pba) is BlockKind.RETIRED
    ]
    assert len(retired) == ssd.block_manager.retired_blocks
    # Retired blocks really did exhaust their budget.
    for pba in retired:
        assert ssd.device.core.erase_count[pba] >= 4


def test_device_dies_when_spares_run_out():
    ssd = make_regular_ssd(block_endurance_cycles=3)
    with pytest.raises(DeviceFullError):
        churn(ssd, ssd.logical_pages // 2, 100_000)
    assert ssd.block_manager.retired_blocks > 0


def test_endurance_report():
    ssd = make_regular_ssd(block_endurance_cycles=50)
    churn(ssd, ssd.logical_pages // 2, 2000)
    report = ssd.endurance_report()
    assert report["rated_pe_cycles"] == 50
    assert 0 < report["life_used"] < 1
    assert report["max_pe_cycles"] >= report["min_pe_cycles"]
    assert report["total_erases"] == sum(ssd.device.block_erase_counts())


def test_wear_leveling_extends_lifetime():
    """With leveling, the same hot workload survives more writes before
    the first retirement (wear spreads instead of burning few blocks)."""

    def writes_until_first_retirement(ssd):
        rng = random.Random(3)
        for lpa in range(ssd.logical_pages // 2):
            ssd.write(lpa)
        writes = 0
        while ssd.block_manager.retired_blocks == 0 and writes < 60_000:
            ssd.write(rng.randrange(16))  # hot hammering
            writes += 1
        return writes

    leveled = make_regular_ssd(block_endurance_cycles=40)
    leveled.wear_leveler.CHECK_INTERVAL_ERASES = 8
    leveled.wear_leveler.GAP_THRESHOLD = 4
    unleveled = make_regular_ssd(block_endurance_cycles=40)
    unleveled.wear_leveler.CHECK_INTERVAL_ERASES = 10**9
    survived_leveled = writes_until_first_retirement(leveled)
    survived_unleveled = writes_until_first_retirement(unleveled)
    assert survived_leveled > survived_unleveled
