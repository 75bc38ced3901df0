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

    chains = {}
    for lpa in ssd.mapping.mapped_lpas():
        head = ssd.mapping.lookup(lpa)
        walk = ssd.index.walk_data_chain(lpa, head, ssd.clock.now_us)
        expected = {oob.timestamp_us for _ppa, oob, _data in walk.entries}
        for committed in committed_columns:
            got = _reachable_data_ts(ssd, lpa, head, committed)
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
        _reachable_data_ts(ssd, 0, geo.total_pages, nobody)

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
    assert _reachable_data_ts(ssd, torn_lpa, torn_head, nobody) == {
        core.timestamp_us[torn_head]
    }
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


class TestTrimTombstone:
    """A TRIM is a tombstone record in the LPA's delta chain: durable once
    its delta page is programmed, advisory before that."""

    @staticmethod
    def real_ssd():
        return make_timessd(
            content_mode=ContentMode.REAL, retention_floor_us=3600 * SECOND_US
        )

    @staticmethod
    def write(ssd, lpa, tag):
        data = tag.ljust(ssd.device.geometry.page_size, b"\x05")
        stamp = ssd.clock.now_us
        ssd.write(lpa, data)
        ssd.clock.advance(1000)
        return stamp, data

    @staticmethod
    def trim(ssd, lpa):
        stamp = ssd.clock.now_us
        ssd.trim(lpa)
        ssd.clock.advance(1000)
        return stamp

    @staticmethod
    def flush_deltas(ssd):
        for segment_id in sorted(ssd.deltas.live_segment_ids()):
            ssd.deltas.flush_segment(segment_id, ssd.clock.now_us)

    @staticmethod
    def history(ssd, lpa):
        return [(v.timestamp_us, v.source, v.data) for v in ssd.version_chain(lpa)[0]]

    @staticmethod
    def power_cycle(ssd):
        simulate_power_loss(ssd)
        rebuild_from_flash(ssd)
        report = DeviceAuditor(ssd).audit()
        assert report.clean, report.violations

    def test_a_flushed_tombstone_keeps_the_lpa_deleted_across_a_cut(self):
        ssd = self.real_ssd()
        (t0, v0), (t1, v1) = self.write(ssd, 7, b"v0"), self.write(ssd, 7, b"v1")
        deleted = self.trim(ssd, 7)
        tombstone = ssd.index.delta_head(7)
        assert (tombstone.version_ts, tombstone.payload) == (deleted, None)
        assert tombstone.flash_ppa is None  # the TRIM programmed nothing
        self.flush_deltas(ssd)
        assert tombstone.flash_ppa is not None
        self.power_cycle(ssd)
        assert not ssd.mapping.is_mapped(7)
        assert ssd.read(7)[0] is None
        assert 7 in ssd.lpas_with_history()
        assert [(ts, source) for ts, source, _ in self.history(ssd, 7)] == [
            (deleted, "deleted"), (t1, "data-page"), (t0, "data-page"),
        ]
        assert [data for _, _, data in self.history(ssd, 7)] == [None, v1, v0]

    def test_an_unflushed_tombstone_is_advisory(self):
        ssd = self.real_ssd()
        (t0, _v0), (t1, v1) = self.write(ssd, 7, b"v0"), self.write(ssd, 7, b"v1")
        self.trim(ssd, 7)
        self.power_cycle(ssd)
        # The cut may bring back the pre-trim version, and nothing else.
        assert ssd.read(7)[0] in (None, v1)
        stamps = [ts for ts, _, _ in self.history(ssd, 7)]
        assert stamps in ([], [t1, t0])

    def test_a_compressed_pre_trim_branch_keeps_its_place(self):
        """v0, v1, TRIM, v2; GC compresses the deleted branch.  The chain
        reads [v2, deletion, v1, v0] before, after, and across a cut."""
        ssd = self.real_ssd()
        (t0, v0), (t1, v1) = self.write(ssd, 7, b"v0"), self.write(ssd, 7, b"v1")
        v1_ppa = ssd.mapping.lookup(7)
        deleted = self.trim(ssd, 7)
        t2, v2 = self.write(ssd, 7, b"v2")
        want = [(t2, v2), (deleted, None), (t1, v1), (t0, v0)]

        def reads_as_wanted(sources):
            got = self.history(ssd, 7)
            assert [(ts, data) for ts, _, data in got] == want
            assert [source for _, source, _ in got] == sources

        reads_as_wanted(["current", "deleted", "data-page", "data-page"])
        # GC reclaims the deleted version's block: the branch becomes
        # deltas behind the tombstone (compress_version_chain's merge).
        pba = ssd.device.geometry.block_of_page(v1_ppa)
        outcome = ssd.relocate_block(pba, ssd.clock.now_us)
        assert outcome.compressed == 2
        reads_as_wanted(["current", "deleted", "delta-ram", "delta-ram"])
        assert DeviceAuditor(ssd).audit().clean
        self.flush_deltas(ssd)
        self.power_cycle(ssd)
        assert ssd.read(7)[0] == v2
        reads_as_wanted(["current", "deleted", "delta", "delta"])

    def test_a_compressed_rewrite_leaves_the_deleted_branch_retained(self):
        """v0, v1, TRIM, v2, v3; only v2 is compressed, so its record is
        newer than the deleted branch's data pages.  Recovery compares
        those pages with their own generation only: the chain reads
        [v3, v2, deletion, v1, v0] across a cut."""
        ssd = self.real_ssd()
        (t0, v0), (t1, v1) = self.write(ssd, 7, b"v0"), self.write(ssd, 7, b"v1")
        deleted = self.trim(ssd, 7)
        t2, v2 = self.write(ssd, 7, b"v2")
        v2_ppa = ssd.mapping.lookup(7)
        t3, v3 = self.write(ssd, 7, b"v3")
        assert ssd.compress_or_lose(v2_ppa, ssd.clock.now_us)[1] == 1
        want = [(t3, v3), (t2, v2), (deleted, None), (t1, v1), (t0, v0)]
        got = self.history(ssd, 7)
        assert [(ts, data) for ts, _, data in got] == want
        assert [source for _, source, _ in got] == [
            "current", "delta-ram", "deleted", "data-page", "data-page",
        ]
        self.flush_deltas(ssd)
        self.power_cycle(ssd)
        got = self.history(ssd, 7)
        assert [(ts, data) for ts, _, data in got] == want
        assert [source for _, source, _ in got] == [
            "current", "delta", "deleted", "data-page", "data-page",
        ]

    def test_a_delta_referencing_the_deleted_version_survives_a_cut(self):
        """v0 is compressed against v1, then v1 is trimmed: after the cut
        v1 is reachable only through the tombstone, and still resolves
        v0's delta."""
        ssd = self.real_ssd()
        (t0, v0), (t1, v1) = self.write(ssd, 7, b"v0"), self.write(ssd, 7, b"v1")
        v0_ppa = ssd.device.core.back_pointer[ssd.mapping.lookup(7)]
        assert ssd.compress_or_lose(v0_ppa, ssd.clock.now_us)[1] == 1
        assert ssd.index.delta_head(7).ref_ts == t1
        deleted = self.trim(ssd, 7)
        self.flush_deltas(ssd)
        self.power_cycle(ssd)
        assert self.history(ssd, 7) == [
            (deleted, "deleted", None), (t1, "data-page", v1), (t0, "delta", v0),
        ]


def test_recovery_resumes_delta_appends_in_a_partial_delta_block():
    """Recovered records are re-homed under the first recovery segment;
    its delta stream resumes in their partial delta block rather than
    opening a fresh block beside it."""
    ssd = make_timessd(retention_floor_us=3600 * SECOND_US)
    for lpa in range(6):
        ssd.write(lpa)
        ssd.clock.advance(1000)
    for lpa in range(4):
        ssd.trim(lpa)
    (segment_id,) = ssd.deltas.live_segment_ids()
    ssd.deltas.flush_segment(segment_id, ssd.clock.now_us)
    (partial,) = ssd.deltas.segment_blocks(segment_id)
    simulate_power_loss(ssd)
    rebuild_from_flash(ssd)
    (segment,) = ssd.blooms.live_segments()
    assert ssd.deltas.segment_blocks(segment.segment_id) == {partial}
    free = ssd.block_manager.free_block_count
    ssd.trim(5)
    tombstone = ssd.index.delta_head(5)
    assert tombstone.segment_id == segment.segment_id
    ssd.deltas.flush_segment(segment.segment_id, ssd.clock.now_us)
    assert ssd.device.geometry.block_of_page(tombstone.flash_ppa) == partial
    assert ssd.device.core.write_pointer[partial] == 2
    assert ssd.block_manager.free_block_count == free
