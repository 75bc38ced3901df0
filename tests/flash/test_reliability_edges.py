"""ReliabilityEngine edge cases: zero BER, end-of-life wear, determinism."""

import pytest

from repro.flash.reliability import (
    FlashReliability,
    ReliabilityEngine,
    UncorrectableReadError,
)


def engine(page_size=4096, **model):
    return ReliabilityEngine(FlashReliability(**model), page_size)


class TestZeroBER:
    def test_zero_ber_never_errors_at_any_wear(self):
        e = engine(raw_bit_error_rate=0.0, wear_ber_multiplier=5.0)
        assert not e.enabled
        for erase_count in (0, 10**6, 10**9):
            assert e.check_read(0, erase_count) == 0
        assert e.corrected_reads.value == 0
        assert e.corrected_bits.value == 0
        assert e.uncorrectable_reads.value == 0


class TestPastRatedEndurance:
    def test_wear_far_past_endurance_defeats_ecc(self):
        e = engine(
            raw_bit_error_rate=1e-7,
            wear_ber_multiplier=1.0,
            ecc_correctable_bits=40,
        )
        # Fresh block: ~0.003 expected errors per read; nothing escapes ECC.
        for _ in range(100):
            e.check_read(0, 0)
        assert e.uncorrectable_reads.value == 0
        # A million P/E cycles inflates the BER by 1e6: thousands of bit
        # errors per read, far beyond any ECC budget.
        with pytest.raises(UncorrectableReadError) as excinfo:
            e.check_read(7, 10**6)
        assert excinfo.value.ppa == 7
        assert excinfo.value.bit_errors > 40
        assert e.uncorrectable_reads.value == 1


class TestDeterminism:
    def test_fixed_seed_replays_identically(self):
        def trace():
            e = engine(
                raw_bit_error_rate=2e-5,
                wear_ber_multiplier=0.1,
                ecc_correctable_bits=10**9,
                seed=0xBEEF,
            )
            counts = [e.check_read(ppa, ppa % 50) for ppa in range(500)]
            return counts, e.corrected_bits.value, e.corrected_reads.value

        assert trace() == trace()

    def test_different_seeds_diverge(self):
        a = engine(raw_bit_error_rate=2e-5, ecc_correctable_bits=10**9, seed=1)
        b = engine(raw_bit_error_rate=2e-5, ecc_correctable_bits=10**9, seed=2)
        assert [a.check_read(p, 0) for p in range(500)] != [
            b.check_read(p, 0) for p in range(500)
        ]
