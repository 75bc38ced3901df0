"""Month-scale aging soak: scrub + retry keep an aging device readable.

The ISSUE 7 acceptance drill: a seeded TimeSSD workload spanning a
simulated month of retention leakage completes with zero user-visible
:class:`UncorrectableReadError` when the read-retry ladder and patrol
scrub are on — and demonstrably fails when both defenses are disabled.
The error model is deterministic per seed, so so is the whole soak.
"""

import random

import pytest

from repro.common.errors import UncorrectableReadError
from repro.common.units import HOUR_US
from repro.flash.reliability import FlashReliability

from tests.conftest import make_timessd

WORKING_SET = 48
EPOCHS = 24          # 24 x 30 h = a 720-hour (30-day) month
EPOCH_US = 30 * HOUR_US
GAP_US = 15_000      # wide enough for the idle machinery to open windows
SEED = 0x50A4


def aging_model(seed=SEED):
    # Fresh pages sit far under the 16-bit budget; by ~350 h of
    # retention a page crosses it, so an undefended month must fail.
    return FlashReliability(
        raw_bit_error_rate=2e-4,
        ecc_correctable_bits=16,
        retention_ber_per_hour=0.05,
        read_disturb_ber_per_read=1e-3,
        retry_ber_factor=0.5,
        seed=seed,
    )


def run_soak(defended, seed=SEED):
    """Fill, then a month of epoch reads + light churn; count errors."""
    overrides = dict(reliability=aging_model(seed), patrol_scrub=defended)
    if not defended:
        overrides["read_retry_limit"] = 0
    ssd = make_timessd(**overrides)
    rng = random.Random(seed)
    errors = 0
    for lpa in range(WORKING_SET):
        ssd.write(lpa)
        ssd.clock.advance(GAP_US)
    for _epoch in range(EPOCHS):
        ssd.clock.advance(EPOCH_US)
        for lpa in range(WORKING_SET):
            try:
                ssd.read(lpa)
            except UncorrectableReadError:
                errors += 1
            ssd.clock.advance(GAP_US)
        for _ in range(4):  # churn keeps GC/compression honest
            ssd.write(rng.randrange(WORKING_SET))
            ssd.clock.advance(GAP_US)
    return ssd, errors


class TestAgingSoak:
    def test_defended_month_has_zero_user_visible_errors(self):
        ssd, errors = run_soak(defended=True)
        assert errors == 0
        counters = ssd.obs.metrics.snapshot()["counters"]
        # The month was survivable *because* the defenses worked, not
        # because the model was idle: scrub really patrolled + refreshed.
        assert counters["scrub.patrol_reads"] > 0
        assert counters["scrub.refreshed_valid"] > 0
        assert counters["flash.ecc.corrected_reads"] > 0
        assert counters["reliability.retry_exhausted"] == 0

    def test_undefended_month_loses_data(self):
        ssd, errors = run_soak(defended=False)
        assert errors > 0
        counters = ssd.obs.metrics.snapshot()["counters"]
        # The engine sees every failed media read — the host-visible
        # errors plus the ones background GC/compression contained.
        assert counters["flash.ecc.uncorrectable_reads"] >= errors

    def test_soak_is_deterministic_per_seed(self):
        snapshots = []
        for _ in range(2):
            ssd, errors = run_soak(defended=True)
            assert errors == 0
            snapshots.append(ssd.obs.metrics.snapshot()["counters"])
        assert snapshots[0] == snapshots[1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_other_seeds_also_survive_when_defended(self, seed):
        _ssd, errors = run_soak(defended=True, seed=seed)
        assert errors == 0
