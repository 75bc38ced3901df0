"""NAND block invariants, driven on the layer that enforces them: a
one-block :class:`~repro.flash.core.ColumnarFlashArray`, and for the
read of an erased page, which the device's read refuses, a one-block
:class:`~repro.flash.device.FlashDevice`."""

import pytest

from repro.common.errors import FlashStateError
from repro.flash.core import ColumnarFlashArray
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata


def oob(lpa=1, ts=0):
    return OOBMetadata(lpa=lpa, back_pointer=NULL_PPA, timestamp_us=ts)


def test_new_block_is_erased():
    core = ColumnarFlashArray(1, 8)
    assert core.write_pointer[0] == 0
    assert not any(core.state)


def test_sequential_program_and_read():
    core = ColumnarFlashArray(1, 4)
    for i in range(4):
        core.program(0, i, b"data%d" % i, oob(lpa=i))
    assert core.write_pointer[0] == 4  # full
    assert core.data[2] == b"data2"
    assert core.oob_at(2).lpa == 2


def test_out_of_order_program_rejected():
    core = ColumnarFlashArray(1, 4)
    with pytest.raises(FlashStateError):
        core.program(0, 1, b"x", oob())


def test_double_program_rejected():
    core = ColumnarFlashArray(1, 4)
    core.program(0, 0, b"x", oob())
    with pytest.raises(FlashStateError):
        core.program(0, 0, b"y", oob())


def test_read_of_erased_page_rejected():
    core = ColumnarFlashArray(1, 4)
    assert core.oob_at(0) is None and core.data[0] is None
    device = FlashDevice(
        FlashGeometry(channels=1, blocks_per_plane=1, pages_per_block=4)
    )
    with pytest.raises(FlashStateError):
        device.read_page(0)


def test_erase_resets_everything_and_counts_wear():
    core = ColumnarFlashArray(1, 4)
    for i in range(4):
        core.program(0, i, b"d", oob())
    core.erase(0)
    assert core.erase_count[0] == 1
    assert core.write_pointer[0] == 0
    assert not any(core.state)
    assert all(data is None for data in core.data)
    # Programmable again from offset 0.
    core.program(0, 0, b"again", oob())
    assert core.data[0] == b"again"


def test_multiple_erases_accumulate():
    core = ColumnarFlashArray(1, 2)
    for _ in range(5):
        core.program(0, 0, b"d", oob())
        core.erase(0)
    assert core.erase_count[0] == 5
