"""Synthesizer fidelity: the generated traces exhibit their volume profiles."""

import pytest

from repro.common.units import DAY_US
from repro.workloads.msr import MSR_VOLUMES, msr_trace
from repro.workloads.fiu import FIU_VOLUMES, fiu_trace

#: A gap between two requests longer than this counts as idle time.
IDLE_GAP_US = 10_000


def write_ratio(records):
    return sum(r.op == "W" for r in records) / len(records)


def daily_turnover(records):
    """Pages written per day divided by the working-set size."""
    touched = {page for r in records for page in range(r.lpa, r.lpa + r.npages)}
    written = sum(r.npages for r in records if r.op == "W")
    days = (records[-1].timestamp_us - records[0].timestamp_us) / DAY_US
    return written / len(touched) / days


def idle_fraction(records):
    """Share of the trace's span spent in gaps longer than IDLE_GAP_US."""
    stamps = [r.timestamp_us for r in records]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    return sum(g for g in gaps if g > IDLE_GAP_US) / (stamps[-1] - stamps[0])


class TestSynthesizerFidelity:
    @pytest.mark.parametrize("volume", sorted(MSR_VOLUMES))
    def test_msr_write_ratios(self, volume):
        records = list(
            msr_trace(volume, 8192, days=7, seed=3, intensity_scale=40)
        )
        assert abs(write_ratio(records) - MSR_VOLUMES[volume].write_ratio) < 0.10

    @pytest.mark.parametrize("volume", sorted(FIU_VOLUMES))
    def test_fiu_write_ratios(self, volume):
        records = list(
            fiu_trace(volume, 8192, days=7, seed=3, intensity_scale=60)
        )
        assert abs(write_ratio(records) - FIU_VOLUMES[volume].write_ratio) < 0.10

    def test_turnover_close_to_profile(self):
        profile = MSR_VOLUMES["hm"]
        records = list(
            msr_trace("hm", 8192, days=7, seed=2, intensity_scale=30)
        )
        target = profile.daily_turnover * 30
        assert 0.4 * target < daily_turnover(records) < 2.5 * target

    def test_traces_are_mostly_idle(self):
        records = list(msr_trace("usr", 8192, days=7, seed=1, intensity_scale=5))
        assert idle_fraction(records) > 0.9  # light volumes are idle-rich
