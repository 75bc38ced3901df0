"""Configuration validation across the device configs."""

import dataclasses

import pytest

from repro.common.idle import IdlePredictor
from repro.flash.timing import FlashTiming
from repro.ftl.ssd import SSDConfig
from repro.timessd.config import ContentMode, TimeSSDConfig

from tests.conftest import small_geometry

SSD_FIELDS = {
    "geometry", "timing", "op_ratio", "background_gc",
    "block_endurance_cycles", "gc_policy", "reliability",
    "mapping_cache_entries", "faults", "read_retry_limit", "patrol_scrub",
    "scrub_risk_fraction", "scrub_pages_per_run",
    "checkpoint_interval_blocks", "tracing",
}


class TestSSDConfig:
    def test_defaults_derive_watermark(self):
        config = SSDConfig(geometry=small_geometry())
        assert config.gc_low_watermark >= small_geometry().channels + 2
        big = small_geometry(blocks_per_plane=2048)
        assert (
            dataclasses.replace(config, geometry=big).gc_low_watermark
            == SSDConfig(geometry=big).gc_low_watermark
            == 81
        )

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2])
    def test_bad_op_ratio(self, ratio):
        with pytest.raises(ValueError):
            SSDConfig(geometry=small_geometry(), op_ratio=ratio)

    def test_logical_pages_below_raw(self):
        config = SSDConfig(geometry=small_geometry(), op_ratio=0.15)
        geo = small_geometry()
        assert config.logical_pages == int(geo.total_pages / 1.15)


class TestTimeSSDConfig:
    def test_paper_defaults(self):
        config = TimeSSDConfig()
        from repro.common.units import DAY_US

        assert config.retention_floor_us == 3 * DAY_US
        assert config.bloom_group_size == 16
        assert config.gc_overhead_threshold == 0.20
        assert config.content_mode is ContentMode.MODELED
        # §3.6's idle predictor is a design constant, not a knob.
        assert IdlePredictor().alpha == 0.5
        assert IdlePredictor().threshold_us == 10_000
        # The settable surface: a new knob is a diff here.
        assert {f.name for f in dataclasses.fields(SSDConfig)} == SSD_FIELDS
        assert {f.name for f in dataclasses.fields(TimeSSDConfig)} == SSD_FIELDS | {
            "retention_floor_us", "bloom_group_size", "bloom_capacity",
            "bloom_segment_max_age_us", "gc_overhead_threshold",
            "gc_overhead_period_writes", "background_compression",
            "delta_compression", "content_mode", "retention_key", "seed",
        }

    def test_timessd_watermark_raised_above_channels(self):
        config = TimeSSDConfig(geometry=small_geometry())
        assert config.gc_low_watermark >= small_geometry().channels + 4
        big = TimeSSDConfig(geometry=small_geometry(blocks_per_plane=2048))
        assert big.gc_low_watermark == 128
        assert (
            dataclasses.replace(big, geometry=small_geometry()).gc_low_watermark
            == config.gc_low_watermark
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retention_floor_us": -1},
            {"gc_overhead_threshold": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeSSDConfig(geometry=small_geometry(), **kwargs)


class TestFlashTiming:
    def test_costs_ordering_default(self):
        timing = FlashTiming()
        assert timing.read_us < timing.program_us < timing.erase_us

    def test_negative_bus_rejected(self):
        with pytest.raises(ValueError):
            FlashTiming(bus_transfer_us=-1)
