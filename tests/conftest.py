"""Shared fixtures: small device geometries so tests run in milliseconds."""

import random

import pytest

from repro.common.errors import UncorrectableReadError
from repro.common.units import HOUR_US, SECOND_US
from repro.flash.geometry import FlashGeometry
from repro.flash.reliability import FlashReliability
from repro.flash.timing import FlashTiming
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.ssd import TimeSSD


def small_geometry(**overrides):
    params = dict(
        channels=4,
        chips_per_channel=1,
        planes_per_chip=1,
        blocks_per_plane=16,
        pages_per_block=16,
        page_size=512,
    )
    params.update(overrides)
    return FlashGeometry(**params)


def make_regular_ssd(**config_overrides):
    params = dict(geometry=small_geometry())
    params.update(config_overrides)
    return RegularSSD(SSDConfig(**params))


def make_timessd(**config_overrides):
    params = dict(
        geometry=small_geometry(),
        retention_floor_us=2 * SECOND_US,
        bloom_capacity=128,
        bloom_segment_max_age_us=SECOND_US // 2,
        content_mode=ContentMode.MODELED,
    )
    params.update(config_overrides)
    return TimeSSD(TimeSSDConfig(**params))


def fill_and_churn(ssd, working_set, churn_writes, seed=7, gap_us=1500):
    """Sequential fill then uniform-random overwrites with a fixed seed."""
    rng = random.Random(seed)
    for lpa in range(working_set):
        ssd.write(lpa)
        ssd.clock.advance(gap_us)
    for _ in range(churn_writes):
        ssd.write(rng.randrange(working_set))
        ssd.clock.advance(gap_us)
    return ssd


#: Media aging strong enough on 512-byte pages for the patrol scrubber
#: to refresh pages after a few ten-hour retention jumps.
AGING = FlashReliability(
    raw_bit_error_rate=2e-4,
    wear_ber_multiplier=0.002,
    retention_ber_per_hour=1.0,
    read_disturb_ber_per_read=5e-4,
    ecc_correctable_bits=24,
    seed=1,
)


def age(ssd, working_set=128, epochs=4, ops=100, seed=7):
    """A sequential fill, then ``epochs`` ten-hour retention jumps, each
    followed by ``ops`` reads (75 %) and overwrites 15 ms apart."""
    rng = random.Random(seed)
    for lpa in range(working_set):
        ssd.write(lpa)
        ssd.clock.advance(1500)
    for _ in range(epochs):
        ssd.clock.advance(10 * HOUR_US)
        for _ in range(ops):
            lpa = rng.randrange(working_set)
            if rng.random() < 0.75:
                try:
                    ssd.read(lpa)
                except UncorrectableReadError:
                    pass
            else:
                ssd.write(lpa)
            ssd.clock.advance(15_000)
    return ssd


def churn_real_content(ssd, working_set, churn_writes, seed=7, gap_us=1500):
    """:func:`fill_and_churn` for ``ContentMode.REAL``: every rewrite
    changes ~2 % of the page's bytes, so retained versions compress into
    XOR deltas.  Returns ``{lpa: [write timestamps, oldest first]}``."""
    rng = random.Random(seed)
    page_size = ssd.device.geometry.page_size
    pages = {}
    history = {}
    order = list(range(working_set))
    order += [rng.randrange(working_set) for _ in range(churn_writes)]
    for lpa in order:
        page = pages.get(lpa)
        if page is None:
            page = pages[lpa] = bytearray(rng.randbytes(page_size))
        else:
            for position in rng.sample(range(page_size), page_size // 50):
                page[position] = rng.randrange(256)
        history.setdefault(lpa, []).append(ssd.clock.now_us)
        ssd.write(lpa, bytes(page))
        ssd.clock.advance(gap_us)
    return history


@pytest.fixture
def geometry():
    return small_geometry()


@pytest.fixture
def regular_ssd():
    return make_regular_ssd()


@pytest.fixture
def timessd():
    return make_timessd()
