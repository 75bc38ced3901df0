"""Power-loss recovery: RAM tables rebuilt from flash OOB metadata."""

import random

import pytest

from repro.common.errors import AddressError
from repro.common.units import SECOND_US
from repro.ftl.block_manager import BlockKind
from repro.timessd.config import ContentMode
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.verify import DeviceAuditor

from tests.conftest import make_timessd, small_geometry


def churned_device(seed=5, real=False, **config):
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=48),
        content_mode=ContentMode.REAL if real else ContentMode.MODELED,
        retention_floor_us=3600 * SECOND_US,
        **config,
    )
    rng = random.Random(seed)
    working = ssd.logical_pages // 3
    state = {}
    history = {}
    for _ in range(working * 3):
        lpa = rng.randrange(working)
        ts = ssd.clock.now_us
        data = (b"%d@%d" % (lpa, ts)).ljust(512, b"\x04") if real else None
        ssd.write(lpa, data)
        state[lpa] = data
        history.setdefault(lpa, []).append(ts)
        ssd.clock.advance(1500)
    return ssd, state, history


def test_current_data_survives_power_loss():
    ssd, state, _history = churned_device(real=True)
    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)
    assert stats["mapped_lpas"] == len(state)
    for lpa, data in state.items():
        assert ssd.read(lpa)[0] == data


def test_device_writable_after_recovery():
    ssd, _state, _history = churned_device()
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    for lpa in range(50):
        ssd.write(lpa)
        ssd.clock.advance(500)
    assert ssd.block_manager.free_block_count > 0


def test_flash_resident_history_survives():
    """Versions on data pages and in flushed delta pages are still
    queryable after the rebuild (RAM-buffered deltas are the documented
    loss)."""
    ssd, _state, history = churned_device()
    # Capture what was retrievable from flash before the crash.
    flash_versions = {}
    for lpa in list(history)[:40]:
        versions, _ = ssd.version_chain(lpa)
        flash_versions[lpa] = {
            v.timestamp_us for v in versions if v.source != "delta-ram"
        }
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    for lpa, expected in flash_versions.items():
        versions, _ = ssd.version_chain(lpa)
        got = {v.timestamp_us for v in versions}
        missing = expected - got
        assert not missing, "lpa %d lost flash-resident versions %s" % (
            lpa,
            missing,
        )


def test_recovered_device_passes_audit():
    ssd, _state, _history = churned_device()
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    report = DeviceAuditor(ssd).audit(sample_lpa_stride=5)
    assert report.clean, report.violations


def test_recovery_draws_nothing_from_the_device_rng():
    # Recovery must rebuild the same tables from the same flash every
    # time: any draw from the device RNG would make it depend on how
    # much compression ran before the crash.
    ssd, _state, _history = churned_device()
    state = ssd._rng.getstate()
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    assert ssd._rng.getstate() == state


def test_recovery_stats_are_coherent():
    ssd, state, _history = churned_device()
    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)
    assert stats["mapped_lpas"] == len(state)
    assert stats["retained_pages"] == ssd.retained_pages
    assert stats["free_blocks"] == ssd.block_manager.free_block_count
    assert stats["free_blocks"] > 0


def test_checkpointed_rebuild_is_repeatable():
    """Two power cycles with nothing written between them rebuild the
    same tables from the same checkpoint and the same flash."""
    ssd, _state, _history = churned_device(checkpoint_interval_blocks=2)

    def l2p():
        return {lpa: ssd.mapping.lookup(lpa) for lpa in ssd.mapping.mapped_lpas()}

    simulate_power_loss(ssd)
    first = rebuild_from_flash(ssd)
    mapping = l2p()
    assert first["checkpoint_seq"] is not None
    assert first["summarized_blocks"] > 0 and first["delta_records"] > 0
    simulate_power_loss(ssd)
    assert rebuild_from_flash(ssd) == first
    assert l2p() == mapping


def test_gc_still_works_after_recovery():
    ssd, _state, _history = churned_device()
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    rng = random.Random(9)
    working = ssd.logical_pages // 3
    before = ssd.gc_runs + ssd.background_gc_runs
    for _ in range(working * 2):
        ssd.write(rng.randrange(working))
        ssd.clock.advance(800)
    assert ssd.gc_runs + ssd.background_gc_runs > before
    report = DeviceAuditor(ssd).audit(sample_lpa_stride=11)
    assert report.clean, report.violations


def _assert_reachable_mirrors_walk(ssd, committed_columns):
    """Recovery's column walk reaches what the timed walk reaches, for
    every mapped LPA and under every ``committed`` given; returns
    ``{lpa: [chain ppas, head first]}``."""
    from repro.timessd.recovery import _reachable_data_ts

    core = ssd.device.core
    chains = {}
    for lpa in ssd.mapping.mapped_lpas():
        head = ssd.mapping.lookup(lpa)
        walk = ssd.index.walk_data_chain(lpa, head, ssd.clock.now_us)
        expected = {oob.timestamp_us for _ppa, oob, _data in walk.entries}
        for committed in committed_columns:
            got = _reachable_data_ts(
                ssd, lpa, (core.timestamp_us[head], head), committed
            )
            assert got == expected, lpa
        chains[lpa] = [ppa for ppa, _oob, _data in walk.entries]
    return chains


def _power_cycle_keeping_the_sweep(ssd, monkeypatch):
    """Power-cycle ``ssd``; returns the :class:`OOBSweep` recovery used."""
    from repro.timessd import recovery

    sweeps = []

    def recording_sweep(*args, **kwargs):
        sweeps.append(recovery_sweep(*args, **kwargs))
        return sweeps[-1]

    recovery_sweep = recovery.sweep_oob
    monkeypatch.setattr(recovery, "sweep_oob", recording_sweep)
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    monkeypatch.undo()
    (sweep,) = sweeps
    return sweep


def test_reachable_reference_timestamps_mirror_the_chain_walk(monkeypatch):
    """Recovery's untimed reference-chain walk reads the OOB columns
    directly; it must reach exactly the versions the timed
    ``walk_data_chain`` reaches from the same head — on a churned device
    where GC has broken some chains and compression has marked others —
    whether a hop's seal is vouched for by the sweep's ``committed``
    column or checked on the spot."""
    from repro.timessd.recovery import _reachable_data_ts

    ssd, _state, _history = churned_device()
    core = ssd.device.core
    geo = ssd.device.geometry
    nobody = bytearray(geo.total_pages)  # pure fallback: every hop checked
    assert _reachable_data_ts(ssd, 0, None, nobody) == set()
    chains = _assert_reachable_mirrors_walk(ssd, [nobody])
    assert len(chains) > 50
    assert sum(len(chain) > 1 for chain in chains.values()) > 10
    with pytest.raises(AddressError):  # the bounds check peek_page made
        _reachable_data_ts(ssd, 0, (0, geo.total_pages), nobody)

    # The sweep's own column: the same sets, with the seal checks it
    # already made skipped.
    sweep = _power_cycle_keeping_the_sweep(ssd, monkeypatch)
    assert sum(sweep.committed) == len(sweep.user_pages) > len(chains)
    chains = _assert_reachable_mirrors_walk(ssd, [nobody, sweep.committed])
    long_chains = sorted(
        (lpa, chain) for lpa, chain in chains.items() if len(chain) > 2
    )
    assert len(long_chains) > 4

    # A hop holding what a torn program leaves (right LPA, older stamp,
    # mismatched seal) ends the walk, whoever is asked about the seal.
    torn_lpa, torn_chain = long_chains[0]
    torn_hop = torn_chain[1]
    core.seq_tag[torn_hop] ^= 1
    torn_head = torn_chain[0]
    assert _reachable_data_ts(
        ssd, torn_lpa, (core.timestamp_us[torn_head], torn_head), nobody
    ) == {core.timestamp_us[torn_head]}
    # A grown-bad block is swept like any other.  One that holds a
    # mapped page stays in service, its pages reported; one that holds
    # none is retired at mount and reports nothing, yet its intact pages
    # stay hops for both walks — nothing erased them.
    bm = ssd.block_manager
    spoken_for = {geo.block_of_page(ppa) for ppa in torn_chain[:2]}

    def chain_into(holding):
        return next(
            (lpa, chain)
            for lpa, chain in long_chains[1:]
            if geo.block_of_page(chain[1]) not in spoken_for
            and geo.block_of_page(chain[0]) != geo.block_of_page(chain[1])
            and (bm.valid_count(geo.block_of_page(chain[1])) > 0) is holding
        )

    kept_lpa, kept_chain = chain_into(True)
    spoken_for.add(geo.block_of_page(kept_chain[1]))
    gone_lpa, gone_chain = chain_into(False)
    kept_hop, gone_hop = kept_chain[1], gone_chain[1]
    for hop in (kept_hop, gone_hop):
        core.failed[geo.block_of_page(hop)] = 1
    sweep = _power_cycle_keeping_the_sweep(ssd, monkeypatch)
    assert sweep.torn_pages >= 1 and not sweep.committed[torn_hop]
    assert sweep.committed[kept_hop] and not sweep.committed[gone_hop]
    bm = ssd.block_manager
    assert bm.kind(geo.block_of_page(kept_hop)) is BlockKind.DATA
    assert bm.kind(geo.block_of_page(gone_hop)) is BlockKind.RETIRED
    assert bm.retired_blocks == 1
    chains = _assert_reachable_mirrors_walk(ssd, [nobody, sweep.committed])
    assert chains[torn_lpa] == torn_chain[:1]
    assert chains[kept_lpa][:2] == kept_chain[:2]
    assert chains[gone_lpa][:2] == gone_chain[:2]
