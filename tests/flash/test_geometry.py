import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import AddressError
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBMetadata

from tests.conftest import small_geometry


def test_totals():
    geo = small_geometry()
    assert geo.total_blocks == 4 * 16
    assert geo.total_pages == 4 * 16 * 16
    assert geo.raw_capacity_bytes == geo.total_pages * 512


def test_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        FlashGeometry(channels=0)
    with pytest.raises(ValueError):
        FlashGeometry(page_size=-1)


def test_block_page_roundtrip():
    geo = small_geometry()
    for ppa in (0, 1, geo.pages_per_block - 1, geo.pages_per_block, geo.total_pages - 1):
        pba = geo.block_of_page(ppa)
        offset = geo.page_offset(ppa)
        assert geo.first_page_of_block(pba) + offset == ppa
        assert geo.locate(ppa) == (pba, offset)


def test_ppa_bounds():
    geo = small_geometry()
    with pytest.raises(AddressError):
        geo.check_ppa(-1)
    with pytest.raises(AddressError):
        geo.check_ppa(geo.total_pages)


def test_pba_bounds():
    geo = small_geometry()
    with pytest.raises(AddressError):
        geo.check_pba(geo.total_blocks)


def test_pages_of_block_covers_block():
    geo = small_geometry()
    pages = list(geo.pages_of_block(3))
    assert len(pages) == geo.pages_per_block
    assert all(geo.block_of_page(p) == 3 for p in pages)


def test_channel_striping_round_robin():
    geo = small_geometry()
    for pba in range(geo.total_blocks):
        assert geo.channel_of_block(pba) == pba % geo.channels


def test_channel_of_page_follows_block():
    geo = small_geometry()
    for ppa in range(0, geo.total_pages, 7):
        assert geo.channel_of_page(ppa) == geo.channel_of_block(geo.block_of_page(ppa))


def test_chip_decomposition_in_range():
    geo = small_geometry(chips_per_channel=2)
    for pba in range(geo.total_blocks):
        channel, chip = geo.chip_of_block(pba)
        assert 0 <= channel < geo.channels
        assert 0 <= chip < geo.chips_per_channel


@given(
    channels=st.integers(1, 8),
    blocks=st.integers(1, 32),
    pages=st.integers(1, 32),
)
def test_address_arithmetic_total_consistency(channels, blocks, pages):
    geo = FlashGeometry(
        channels=channels,
        blocks_per_plane=blocks,
        pages_per_block=pages,
        page_size=256,
    )
    seen = set()
    for pba in range(geo.total_blocks):
        for ppa in geo.pages_of_block(pba):
            assert ppa not in seen
            seen.add(ppa)
    assert len(seen) == geo.total_pages


def test_cached_totals_are_derived_not_fields():
    """``total_blocks``/``total_pages`` are computed once per instance:
    equal to the product, recomputed by ``dataclasses.replace``, and
    invisible to ``==``/``hash``/``repr`` (field-only, as before)."""
    geo = small_geometry(chips_per_channel=2, planes_per_chip=2)
    assert geo.total_blocks == 4 * 2 * 2 * 16
    assert geo.total_pages == geo.total_blocks * geo.pages_per_block
    bigger = dataclasses.replace(geo, channels=8)
    assert bigger.total_blocks == 2 * geo.total_blocks
    assert bigger.total_pages == bigger.total_blocks * bigger.pages_per_block
    twin = small_geometry(chips_per_channel=2, planes_per_chip=2)
    assert twin == geo and hash(twin) == hash(geo)
    assert bigger != geo
    assert {f.name for f in dataclasses.fields(geo)} == {
        "channels", "chips_per_channel", "planes_per_chip",
        "blocks_per_plane", "pages_per_block", "page_size",
    }
    assert "total" not in repr(geo)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geo.total_pages = 1


@pytest.mark.parametrize(
    "helper", ["locate", "block_of_page", "page_offset", "channel_of_page"]
)
def test_every_page_helper_rejects_out_of_range(helper):
    geo = small_geometry()
    for ppa in (-1, geo.total_pages):
        with pytest.raises(AddressError):
            getattr(geo, helper)(ppa)


@pytest.mark.parametrize(
    "helper",
    ["first_page_of_block", "pages_of_block", "channel_of_block", "chip_of_block"],
)
def test_every_block_helper_rejects_out_of_range(helper):
    geo = small_geometry()
    for pba in (-1, geo.total_blocks):
        with pytest.raises(AddressError):
            getattr(geo, helper)(pba)


def test_device_entry_points_reject_out_of_range():
    device = FlashDevice(small_geometry())
    oob = OOBMetadata(lpa=0)
    for ppa in (-1, device.geometry.total_pages):
        with pytest.raises(AddressError):
            device.read_page(ppa)
        with pytest.raises(AddressError):
            device.program_page(ppa, b"x", oob)
        with pytest.raises(AddressError):
            device.peek_page(ppa)
    for pba in (-1, device.geometry.total_blocks):
        with pytest.raises(AddressError):
            device.erase_block(pba)
        with pytest.raises(AddressError):
            device.scan_block_oob(pba)
