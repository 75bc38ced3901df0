"""Bit errors and ECC: corrected silently, uncorrectable loudly."""

import pytest

from repro.flash import FlashGeometry, FlashReliability, UncorrectableReadError
from repro.flash.device import FlashDevice
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.flash.reliability import ReliabilityEngine

from tests.conftest import make_regular_ssd


def oob(lpa=0):
    return OOBMetadata(lpa=lpa, back_pointer=NULL_PPA, timestamp_us=0)


def make_device(**reliability):
    geometry = FlashGeometry(channels=2, blocks_per_plane=8, pages_per_block=8, page_size=4096)
    return FlashDevice(geometry, reliability=FlashReliability(**reliability))


class TestModelValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            FlashReliability(raw_bit_error_rate=-1)
        with pytest.raises(ValueError):
            FlashReliability(ecc_correctable_bits=-1)

    def test_disabled_by_default(self):
        device = FlashDevice()
        assert device.reliability is None


class TestECC:
    def test_low_ber_is_always_corrected(self):
        # ~0.3 expected errors per read, budget 40: corrections happen,
        # failures effectively never.
        device = make_device(raw_bit_error_rate=1e-5, ecc_correctable_bits=40)
        device.program_page(0, b"x", oob())
        for _ in range(2000):
            assert device.read_page(0).data == b"x"
        engine = device.reliability
        assert engine.corrected_reads.value > 0
        assert engine.uncorrectable_reads.value == 0

    def test_extreme_ber_fails_reads(self):
        device = make_device(raw_bit_error_rate=1e-2, ecc_correctable_bits=8)
        device.program_page(0, b"x", oob())
        with pytest.raises(UncorrectableReadError) as excinfo:
            for _ in range(50):
                device.read_page(0)
        assert excinfo.value.bit_errors > 8
        assert device.reliability.uncorrectable_reads.value >= 1

    def test_wear_raises_error_rate(self):
        model = FlashReliability(
            raw_bit_error_rate=2e-6, wear_ber_multiplier=1.0, ecc_correctable_bits=10**9
        )
        engine_fresh = ReliabilityEngine(model, 4096)
        engine_worn = ReliabilityEngine(model, 4096)
        fresh = sum(engine_fresh.check_read(0, erase_count=0) for _ in range(3000))
        worn = sum(engine_worn.check_read(0, erase_count=50) for _ in range(3000))
        assert worn > 3 * fresh

    def test_poisson_sampler_sane(self):
        engine = ReliabilityEngine(
            FlashReliability(raw_bit_error_rate=1.0, ecc_correctable_bits=10**9), 1
        )
        # lambda = 8 bits * 1.0: mean of samples near 8.
        samples = [engine._poisson(8.0) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 7.0 < mean < 9.0
        assert all(s >= 0 for s in samples)

    def test_large_lambda_uses_normal_approximation(self):
        engine = ReliabilityEngine(
            FlashReliability(raw_bit_error_rate=1.0, ecc_correctable_bits=10**9), 1
        )
        samples = [engine._poisson(500.0) for _ in range(500)]
        mean = sum(samples) / len(samples)
        assert 450 < mean < 550


class TestSSDIntegration:
    def test_ssd_with_reliable_flash_just_works(self):
        ssd = make_regular_ssd(
            reliability=FlashReliability(raw_bit_error_rate=1e-6)
        )
        for lpa in range(100):
            ssd.write(lpa, b"payload-%d" % lpa)
        for lpa in range(100):
            assert ssd.read(lpa)[0] == b"payload-%d" % lpa

    def test_end_of_life_surfaces_to_host(self):
        ssd = make_regular_ssd(
            reliability=FlashReliability(
                raw_bit_error_rate=5e-3, ecc_correctable_bits=4
            )
        )
        ssd.write(0, b"doomed")
        with pytest.raises(UncorrectableReadError):
            for _ in range(200):
                ssd.read(0)
