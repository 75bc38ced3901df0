"""Checkpointed recovery: sublinear scans, exact equivalence, crash safety."""

import random

import pytest

from repro.flash.page import NULL_PPA
from repro.ftl import checkpoint
from repro.ftl.checkpoint import (
    CHECKPOINT_STREAM,
    CheckpointImage,
    find_translation_blocks,
    load_latest_checkpoint,
    summary_for,
)
from repro.ftl.recovery import rebuild_from_flash, simulate_power_loss
from repro.ftl.recovery_scan import sweep_oob

from tests.conftest import make_regular_ssd, small_geometry


def churned(interval=4, seed=11, writes=900, **overrides):
    ssd = make_regular_ssd(
        geometry=small_geometry(blocks_per_plane=32),
        checkpoint_interval_blocks=interval,
        **overrides,
    )
    rng = random.Random(seed)
    working = ssd.logical_pages // 2
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(1200)
    for _ in range(writes):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(1200)
    return ssd


def mapping_snapshot(ssd):
    return {
        lpa: ssd.mapping.lookup(lpa)
        for lpa in range(ssd.logical_pages)
        if ssd.mapping.lookup(lpa) != NULL_PPA
    }


def test_checkpoints_are_written_and_superseded():
    ssd = churned()
    counters = ssd.obs.metrics.snapshot()["counters"]
    assert counters["recovery.checkpoint.written"] > 2
    # Steady state reuses cached summaries instead of rescanning.
    assert counters["recovery.checkpoint.summaries_reused"] > 0
    # Old checkpoints are garbage-collected, not hoarded: the writer's
    # working set stays a handful of translation blocks.
    assert counters["recovery.checkpoint.superseded_erased"] > 0
    assert len(find_translation_blocks(ssd.device)) <= 8


def test_checkpointed_recovery_matches_full_scan_exactly(monkeypatch):
    ssd = churned()
    before = mapping_snapshot(ssd)
    erases_before = ssd.device.block_erase_counts()
    # The sweep itself: adopting summaries reports — and vouches for the
    # seals of — exactly the pages a scan of every block verifies.
    checkpointed = sweep_oob(simulate_power_loss(ssd))
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "load_latest_checkpoint", lambda *_args: None)
        full = sweep_oob(simulate_power_loss(ssd))
    assert full.summarized_blocks == 0 < checkpointed.summarized_blocks
    assert checkpointed.user_pages == full.user_pages
    assert checkpointed.head_ts == full.head_ts
    assert checkpointed.head_ppa == full.head_ppa
    assert checkpointed.committed == full.committed
    assert sum(full.committed) == len(full.user_pages[0]) > 0
    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)
    assert mapping_snapshot(ssd) == before
    assert ssd.device.block_erase_counts() == erases_before
    assert stats["checkpoint_seq"] is not None
    assert stats["summarized_blocks"] > 0
    # The whole point: most sealed blocks come from the checkpoint.
    assert stats["scanned_blocks"] < stats["summarized_blocks"]
    # Device stays writable afterwards.
    for lpa in range(40):
        ssd.write(lpa)
        ssd.clock.advance(500)
    assert mapping_snapshot(ssd).keys() >= set(range(40))


def test_recovery_without_checkpoints_is_identical():
    """checkpoint_interval_blocks=None (the default) still recovers."""
    with_cp = churned()
    without_cp = churned(interval=None)
    assert without_cp.checkpointer is None
    for ssd in (with_cp, without_cp):
        before = mapping_snapshot(ssd)
        simulate_power_loss(ssd)
        rebuild_from_flash(ssd)
        assert mapping_snapshot(ssd) == before
    stats = rebuild_from_flash(simulate_power_loss(churned(interval=None)))
    assert stats["checkpoint_seq"] is None
    assert stats["summarized_blocks"] == 0


def test_stale_summary_is_rejected_after_reuse():
    """A summary keyed on an old erase count must not apply to the
    block's new life."""
    ssd = churned()
    image = load_latest_checkpoint(
        ssd.device, find_translation_blocks(ssd.device)
    )
    assert image is not None
    pba = next(iter(image.summaries))
    core = ssd.device.core
    assert summary_for(image, core, pba, ssd.device.geometry.pages_per_block)
    core.erase_count[pba] += 1  # simulate GC + reuse after the checkpoint
    assert (
        summary_for(image, core, pba, ssd.device.geometry.pages_per_block)
        is None
    )
    core.erase_count[pba] -= 1
    core.failed[pba] = 1  # grown bad after the checkpoint
    assert (
        summary_for(image, core, pba, ssd.device.geometry.pages_per_block)
        is None
    )


def test_torn_root_falls_back_to_previous_checkpoint():
    """A power cut mid-checkpoint leaves the previous one in force."""
    ssd = churned()
    blocks = find_translation_blocks(ssd.device)
    image = load_latest_checkpoint(ssd.device, blocks)
    assert image is not None
    # Tear the newest root page in place, as a cut mid-commit would.
    device = ssd.device
    core = device.core
    torn = None
    for pba in blocks:
        first = device.geometry.first_page_of_block(pba)
        for offset in range(core.write_pointer[pba]):
            payload = core.data[first + offset]
            if isinstance(payload, CheckpointImage) and payload.seq == image.seq:
                core.seq_tag[first + offset] ^= 1  # a mismatched seal: torn
                torn = payload
    assert torn is not None
    fallback = load_latest_checkpoint(device, blocks)
    assert fallback is None or fallback.seq < image.seq
    # Recovery still rebuilds the exact mapping off the older image.
    before = mapping_snapshot(ssd)
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    assert mapping_snapshot(ssd) == before


def test_missing_part_invalidates_checkpoint():
    """Tearing one continuation page must invalidate its whole image."""
    ssd = churned()
    device = ssd.device
    core = device.core
    blocks = find_translation_blocks(device)
    image = load_latest_checkpoint(device, blocks)
    assert image is not None
    if image.parts == 0:
        pytest.skip("checkpoint fits in the root page on this geometry")
    from repro.ftl.checkpoint import CheckpointPart

    for pba in blocks:
        first = device.geometry.first_page_of_block(pba)
        for offset in range(core.write_pointer[pba]):
            payload = core.data[first + offset]
            if isinstance(payload, CheckpointPart) and payload.seq == image.seq:
                core.seq_tag[first + offset] ^= 1  # a mismatched seal: torn
    fallback = load_latest_checkpoint(device, blocks)
    assert fallback is None or fallback.seq < image.seq


def test_checkpoint_trigger_is_interval_based():
    ssd = make_regular_ssd(
        geometry=small_geometry(blocks_per_plane=32),
        checkpoint_interval_blocks=1000,  # never triggers in this test
    )
    for lpa in range(60):
        ssd.write(lpa)
        ssd.clock.advance(500)
    counters = ssd.obs.metrics.snapshot()["counters"]
    assert counters["recovery.checkpoint.written"] == 0
    assert find_translation_blocks(ssd.device) == set()


def test_recovered_checkpointer_adopts_and_supersedes():
    """After recovery the writer must supersede, not collide with, the
    surviving checkpoint chain."""
    ssd = churned()
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    seq_after_recovery = ssd.checkpointer.seq
    assert seq_after_recovery > 0
    old_blocks = find_translation_blocks(ssd.device)
    rng = random.Random(3)
    for _ in range(700):
        ssd.write(rng.randrange(ssd.logical_pages // 2))
        ssd.clock.advance(1200)
    assert ssd.checkpointer.seq > seq_after_recovery
    image = load_latest_checkpoint(
        ssd.device, find_translation_blocks(ssd.device)
    )
    assert image is not None and image.seq > seq_after_recovery
    # The pre-crash translation blocks were reclaimed once superseded.
    counters = ssd.obs.metrics.snapshot()["counters"]
    assert counters["recovery.checkpoint.superseded_erased"] > 0


def test_checkpoint_stream_is_translation_kind():
    ssd = churned()
    from repro.ftl.block_manager import BlockKind

    for pba in find_translation_blocks(ssd.device):
        assert ssd.block_manager.kind(pba) is BlockKind.TRANSLATION
    active = ssd.block_manager.stream_blocks(CHECKPOINT_STREAM)
    if active is not None:
        assert ssd.block_manager.kind(active) is BlockKind.TRANSLATION


@pytest.mark.xfail(
    strict=True,
    reason="CheckpointWriter.adopt restarts the program count at the mount "
    "(ROADMAP item 6): a device cut more often than every interval never "
    "checkpoints again",
)
def test_a_mount_counts_what_it_scanned_toward_the_next_checkpoint():
    # The wanted rule: the pages programmed since the adopted checkpoint,
    # which the mount had to scan, count toward the next one.  Six blocks
    # of writes after the first checkpoint, a cut, three more: nine
    # blocks past it on an interval of eight, so one more is due.
    ssd = make_regular_ssd(
        geometry=small_geometry(blocks_per_plane=32),
        checkpoint_interval_blocks=8,
    )
    pages_per_block = ssd.device.geometry.pages_per_block
    written = ssd.obs.metrics.counter("recovery.checkpoint.written")
    lpa = 0

    def write(pages):
        nonlocal lpa
        for _ in range(pages):
            ssd.write(lpa)
            lpa += 1
            ssd.clock.advance(500)

    while written.value == 0:
        write(1)
    write(6 * pages_per_block)
    assert written.value == 1
    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)
    assert stats["checkpoint_seq"] == ssd.checkpointer.seq == 1
    assert stats["scanned_blocks"] >= 6
    write(3 * pages_per_block)
    assert ssd.gc_runs == 0  # every program above is a host page
    assert ssd.checkpointer.seq > 1
