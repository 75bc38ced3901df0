"""Time-aware error model: retention age, read disturb, retry ladder.

Complements tests/flash/test_reliability.py (which pins the wear term
and the Poisson sampler): these tests cover the ISSUE 7 aging terms and
their plumbing through the device — per-page ``programmed_us`` retention
clocks, per-block ``reads_since_erase`` disturb accumulators (reset on
erase), and the ``retry_step`` BER attenuation the read-retry ladder
relies on.
"""

import pytest

from repro.common.errors import UncorrectableReadError
from repro.common.units import HOUR_US
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.flash.reliability import FlashReliability, ReliabilityEngine

GEO = FlashGeometry(
    channels=1,
    chips_per_channel=1,
    planes_per_chip=1,
    blocks_per_plane=4,
    pages_per_block=4,
    page_size=512,
)


def make_device(**model_overrides):
    params = dict(raw_bit_error_rate=1e-4, ecc_correctable_bits=40)
    params.update(model_overrides)
    return FlashDevice(GEO, reliability=FlashReliability(**params))


class TestEffectiveBer:
    ENGINE = ReliabilityEngine(
        FlashReliability(
            raw_bit_error_rate=1e-4,
            wear_ber_multiplier=0.01,
            retention_ber_per_hour=0.5,
            read_disturb_ber_per_read=0.001,
            retry_ber_factor=0.5,
        ),
        page_size=512,
    )

    def test_retention_age_raises_the_rate(self):
        fresh = self.ENGINE.effective_ber(erase_count=0, age_us=0)
        aged = self.ENGINE.effective_ber(erase_count=0, age_us=10 * HOUR_US)
        assert aged == pytest.approx(fresh * (1 + 0.5 * 10))

    def test_read_disturb_raises_the_rate(self):
        quiet = self.ENGINE.effective_ber(erase_count=0)
        noisy = self.ENGINE.effective_ber(erase_count=0, block_reads=1000)
        assert noisy == pytest.approx(quiet * (1 + 0.001 * 1000))

    def test_terms_are_additive(self):
        ber = self.ENGINE.effective_ber(
            erase_count=10, age_us=2 * HOUR_US, block_reads=100
        )
        expected = 1e-4 * (1 + 0.01 * 10 + 0.5 * 2 + 0.001 * 100)
        assert ber == pytest.approx(expected)

    def test_retry_step_attenuates_geometrically(self):
        base = self.ENGINE.effective_ber(erase_count=0, age_us=HOUR_US)
        for step in (1, 2, 3):
            stepped = self.ENGINE.effective_ber(
                erase_count=0, age_us=HOUR_US, retry_step=step
            )
            assert stepped == pytest.approx(base * 0.5**step)

    def test_rejects_negative_aging_rates(self):
        with pytest.raises(ValueError):
            FlashReliability(retention_ber_per_hour=-1.0)
        with pytest.raises(ValueError):
            FlashReliability(read_disturb_ber_per_read=-1.0)
        with pytest.raises(ValueError):
            FlashReliability(retry_ber_factor=0.0)
        with pytest.raises(ValueError):
            FlashReliability(retry_ber_factor=1.5)


class TestDevicePlumbing:
    def _program(self, device, ppa, now_us=0):
        data = bytes(GEO.page_size)
        device.program_page(ppa, data, OOBMetadata(lpa=0, back_pointer=NULL_PPA, timestamp_us=now_us), now_us)

    def test_program_stamps_the_retention_clock(self):
        device = make_device()
        self._program(device, 0, now_us=12345)
        assert device.core.programmed_us[0] == 12345

    def test_reads_accumulate_disturb_and_erase_resets_it(self):
        device = make_device()
        self._program(device, 0)
        for _ in range(5):
            device.read_page(0, 0)
        assert device.core.reads_since_erase[0] == 5
        device.erase_block(0, 0)
        assert device.core.reads_since_erase[0] == 0

    def test_read_result_surfaces_corrected_bits(self):
        # High-but-correctable BER: some read of a page must correct > 0
        # bits, and the count must be visible on what the read returns.
        device = make_device(raw_bit_error_rate=2e-3, ecc_correctable_bits=64)
        self._program(device, 0)
        corrected = [device.read_page(0, 0)[1] for _ in range(20)]
        assert any(c > 0 for c in corrected)
        assert all(c >= 0 for c in corrected)

    def test_retention_age_drives_reads_over_the_budget(self):
        device = make_device(
            raw_bit_error_rate=2e-3,
            retention_ber_per_hour=1.0,
            ecc_correctable_bits=8,
        )
        self._program(device, 0, now_us=0)
        # Fresh: correctable.  A month later: far over budget.
        device.read_page(0, 0)
        with pytest.raises(UncorrectableReadError):
            device.read_page(0, 720 * HOUR_US)

    def test_retry_step_rescues_a_marginal_read(self):
        device = make_device(
            raw_bit_error_rate=8e-3,
            ecc_correctable_bits=8,
            retry_ber_factor=0.1,
        )
        self._program(device, 0)
        with pytest.raises(UncorrectableReadError):
            device.read_page(0, 0)
        device.read_page(0, 0, retry_step=3)
        assert device.core.data[0] == bytes(GEO.page_size)

    def test_retry_step_costs_extra_sense_time(self):
        device = make_device(raw_bit_error_rate=1e-9)
        self._program(device, 0)
        # First read absorbs the program's chip occupancy; measure from a
        # quiet timeline.
        t = device.read_page(0, 0)[0]
        base = device.read_page(0, t)[0] - t
        start = t + base
        retried = device.read_page(0, start, retry_step=2)[0] - start
        assert retried == pytest.approx(base * 3, rel=0.25)

    def test_disturb_seen_by_a_read_excludes_itself(self):
        """The N-th read sees N-1 prior senses: retries of a failed read
        must not observe extra disturb from the failure itself."""
        engine_calls = []
        device = make_device()
        original = device.reliability.check_read

        def spy(ppa, erase_count, age_us=0, block_reads=0, retry_step=0):
            engine_calls.append(block_reads)
            return original(ppa, erase_count, age_us, block_reads, retry_step)

        device.reliability.check_read = spy
        self._program(device, 0)
        device.read_page(0, 0)
        device.read_page(0, 0)
        assert engine_calls == [0, 1]


class TestMetricsMirroring:
    def test_ecc_counters_reach_the_metrics_scope(self):
        device = make_device(raw_bit_error_rate=2e-3, ecc_correctable_bits=64)
        data = bytes(GEO.page_size)
        device.program_page(0, data, OOBMetadata(lpa=0, back_pointer=NULL_PPA, timestamp_us=0), 0)
        corrected = [device.read_page(0, 0)[1] for _ in range(20)]
        counters = device.obs.metrics.snapshot()["counters"]
        # The reads' own corrected-bit reports are the witness.
        assert counters["flash.ecc.corrected_reads"] == sum(map(bool, corrected)) > 0
        assert counters["flash.ecc.corrected_bits"] == sum(corrected)
        assert counters["flash.ecc.uncorrectable_reads"] == 0
        # The engine counts into the device's scope, not a copy of it; a
        # standalone engine counts into a private registry.
        engine = device.reliability
        assert engine.corrected_reads is device.obs.metrics.get(
            "flash.ecc.corrected_reads"
        )
        standalone = ReliabilityEngine(engine.model, GEO.page_size)
        bits = sum(standalone.check_read(0, erase_count=0) for _ in range(5))
        assert standalone.corrected_bits.value == bits > 0
        assert engine.corrected_bits.value == sum(corrected)
