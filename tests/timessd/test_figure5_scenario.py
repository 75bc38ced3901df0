"""The paper's Figure 5, as an executable scenario.

Four versions of one LPA L — Z(T0), Y(T1), X(T2), W(T3 = current) — and
GC reclaims the block holding Y.  The paper's figure shows the result:

* data-page chain: W -> X (unbroken prefix of newest versions);
* delta-page chain: delta(L, T1, ref T3) -> delta(L, T0, ref T3);
* the IMT points at the T1 delta;
* every version is still retrievable, in order.
"""

import pytest

from repro.common.units import SECOND_US
from repro.timessd.config import ContentMode

from tests.conftest import make_timessd, small_geometry


@pytest.fixture
def scenario():
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=32),
        content_mode=ContentMode.REAL,
        retention_floor_us=3600 * SECOND_US,
    )
    L = 5
    size = ssd.device.geometry.page_size
    stamps = {}
    ppas = {}
    for name in ("Z", "Y", "X", "W"):
        stamps[name] = ssd.clock.now_us
        ssd.write(L, ("data-%s" % name).encode().ljust(size, b"\0"))
        ppas[name] = ssd.mapping.lookup(L)
        ssd.clock.advance(SECOND_US)
    return ssd, L, stamps, ppas


def test_chain_before_gc_is_pure_data_pages(scenario):
    ssd, L, stamps, _ppas = scenario
    versions, _ = ssd.version_chain(L)
    assert [v.timestamp_us for v in versions] == [
        stamps["W"], stamps["X"], stamps["Y"], stamps["Z"],
    ]
    assert versions[0].source == "current"
    assert all(v.source == "data-page" for v in versions[1:])


def test_figure5_after_reclaiming_y(scenario):
    ssd, L, stamps, ppas = scenario
    geo = ssd.device.geometry

    # Reclaim the block that holds Y (the paper's GC victim).
    victim = geo.block_of_page(ppas["Y"])
    ssd.relocate_block(victim, ssd.clock.now_us)

    versions, _ = ssd.version_chain(L)
    by_ts = {v.timestamp_us: v for v in versions}

    # All four versions survive, still newest-first.
    assert [v.timestamp_us for v in versions] == [
        stamps["W"], stamps["X"], stamps["Y"], stamps["Z"],
    ]

    # Fig 5b: W (and X, if its block survived) remain data pages...
    assert by_ts[stamps["W"]].source == "current"
    # ...Fig 5c: Y and Z moved to the delta chain.
    assert by_ts[stamps["Y"]].source.startswith("delta")
    assert by_ts[stamps["Z"]].source.startswith("delta")

    # The IMT head is Y's delta; its back link is Z's; both reference
    # the current version W (T3) for decompression.
    head = ssd.index.delta_head(L)
    assert head.version_ts == stamps["Y"]
    assert head.back.version_ts == stamps["Z"]
    assert head.back.back is None
    assert head.ref_ts == stamps["W"]
    assert head.back.ref_ts == stamps["W"]

    # Content is byte-exact after decompression.
    assert by_ts[stamps["Y"]].data.startswith(b"data-Y")
    assert by_ts[stamps["Z"]].data.startswith(b"data-Z")


def test_invariant_deltas_older_than_data_pages(scenario):
    ssd, L, stamps, ppas = scenario
    geo = ssd.device.geometry
    ssd.relocate_block(geo.block_of_page(ppas["Y"]), ssd.clock.now_us)
    versions, _ = ssd.version_chain(L)
    data_ts = [v.timestamp_us for v in versions if not v.source.startswith("delta")]
    delta_ts = [v.timestamp_us for v in versions if v.source.startswith("delta")]
    assert max(delta_ts) < min(data_ts)


def test_second_gc_extends_the_delta_chain(scenario):
    """Later, X's block is reclaimed too: X joins the delta chain at its
    head, keeping newest-first order (the §3.7 time-order argument)."""
    ssd, L, stamps, ppas = scenario
    geo = ssd.device.geometry
    ssd.relocate_block(geo.block_of_page(ppas["Y"]), ssd.clock.now_us)
    if geo.block_of_page(ppas["X"]) != geo.block_of_page(ppas["W"]):
        ssd.relocate_block(
            geo.block_of_page(ppas["X"]), ssd.clock.now_us
        )
        head = ssd.index.delta_head(L)
        assert head.version_ts == stamps["X"]
        assert head.back.version_ts == stamps["Y"]
    versions, _ = ssd.version_chain(L)
    stamps_seen = [v.timestamp_us for v in versions]
    assert stamps_seen == sorted(stamps_seen, reverse=True)
    assert len(stamps_seen) == 4
