"""Power-loss recovery: RAM tables rebuilt from flash OOB metadata."""

import math
import random
from collections import defaultdict
from operator import attrgetter

import pytest

from repro.common.errors import AddressError
from repro.common.units import SECOND_US
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl.block_manager import BlockKind
from repro.timessd import recovery
from repro.timessd.config import ContentMode
from repro.timessd.delta import DeltaPage, DeltaRecord
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


def _eager_relink(ssd, sweep):
    """The reference: recovery's relink and PRT classification as they
    were before the head chain was walked lazily — every LPA with delta
    records walks its head's data chain up front, and the chain's stamps
    newer than the newest record seed the reference set.  Reads ``sweep``
    and the device, changes neither; run where recovery's own relink
    runs, right after the sweep, while the PRT is still empty.  Returns
    ``({lpa: [kept records, newest first]}, unresolvable, PRT column)``.
    """
    _reachable_data_ts = recovery._reachable_data_ts
    heads = {
        lpa: (ts, ppa)
        for lpa, (ts, ppa) in enumerate(zip(sweep.head_ts, sweep.head_ppa))
        if ppa != NULL_PPA
    }
    by_lpa = defaultdict(list)
    data = ssd.device.core.data
    for _pba, ppa, lpa_tag, _ts in sweep.housekeeping:
        page = data[ppa]
        if lpa_tag == OOBMetadata.DELTA_TAG and isinstance(page, DeltaPage):
            for record in page.records:
                if not record.dropped:
                    by_lpa[record.lpa].append(record)

    committed = sweep.committed
    chains = {}
    newest_delta_ts = {}
    generations_by_lpa = {}
    unresolvable = 0
    for lpa, records in by_lpa.items():
        records = sorted(records, key=attrgetter("version_ts"), reverse=True)
        head = heads.get(lpa)
        if (
            head is not None
            and records[0].data_back is not None
            and records[0].version_ts > head[0]
        ):
            del heads[lpa]
            head = None
        resolvable = _reachable_data_ts(
            ssd, lpa, None if head is None else head[1], committed
        )
        generations = [[math.inf, -1]]
        kept = []
        for record in records:
            if not kept:
                resolvable = {ts for ts in resolvable if ts > record.version_ts}
            if (
                record.compressed
                and record.ref_ts >= 0
                and record.ref_ts not in resolvable
            ):
                unresolvable += 1
                continue
            kept.append(record)
            if record.data_back is None:
                resolvable.add(record.version_ts)
                if generations[-1][1] < 0:
                    generations[-1][1] = record.version_ts
            else:
                generations.append([record.version_ts, -1])
                resolvable |= _reachable_data_ts(
                    ssd, lpa, record.data_back, committed, record.version_ts
                )
        if not kept:
            continue
        chains[lpa] = kept
        if len(generations) == 1:
            newest_delta_ts[lpa] = generations[0][1]
        else:
            generations_by_lpa[lpa] = generations

    prt = bytearray(ssd.device.geometry.total_pages)
    for ppa, lpa, ts in zip(*sweep.user_pages):
        head_ts, head_ppa = heads.get(lpa, (None, None))
        if ppa == head_ppa:
            continue
        if ts == head_ts or ts <= newest_delta_ts.get(lpa, -1) or (
            lpa in generations_by_lpa
            and ts <= recovery._newest_payload_ts(generations_by_lpa[lpa], ts)
        ):
            prt[ppa] = 1
    return chains, unresolvable, prt


def power_cycle_against_the_eager_relink(ssd):
    """Power-cycle ``ssd`` with :func:`_eager_relink` run over the
    rebuild's own sweep; the rebuilt IMT chains (record identity and
    order), ``unresolvable_deltas`` and PRT column must be the
    reference's.  Returns the rebuild's stats."""
    references = []
    sweep_oob = recovery.sweep_oob

    def sweep_then_reference(*args, **kwargs):
        sweep = sweep_oob(*args, **kwargs)
        references.append(_eager_relink(ssd, sweep))
        return sweep

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "sweep_oob", sweep_then_reference)
        simulate_power_loss(ssd)
        stats = rebuild_from_flash(ssd)
    ((chains, unresolvable, prt),) = references
    rebuilt = {}
    for lpa in ssd.index.delta_head_lpas():
        record, chain = ssd.index.delta_head(lpa), []
        while record is not None:
            chain.append(id(record))
            record = record.back
        rebuilt[lpa] = chain
    assert rebuilt == {
        lpa: [id(record) for record in kept] for lpa, kept in chains.items()
    }
    assert stats["unresolvable_deltas"] == unresolvable
    assert ssd.block_manager.reclaimable == prt
    return stats


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


@pytest.mark.parametrize(
    "config, cuts",
    [({}, 4), ({"real": True}, 4), ({"seed": 9, "checkpoint_interval_blocks": 2}, 2)],
    ids=["modeled", "real", "checkpointed"],
)
def test_the_lazy_relink_is_the_eager_one(config, cuts):
    """Recovery walks a head's data chain only for a reference its kept
    records and its head's own stamp do not answer; the rebuilt tables
    are the ones the eager walk of every head builds, cut after cut, each
    over what the last one recovered and 400 more writes."""
    ssd, _state, _history = churned_device(**config)
    real = config.get("real", False)
    rng = random.Random(3)
    records = unresolvable = 0
    for cut in range(cuts):
        for _ in range(400 if cut else 0):
            lpa = rng.randrange(ssd.logical_pages // 3)
            data = (b"%d@%d" % (lpa, ssd.clock.now_us)).ljust(512, b"\x04")
            ssd.write(lpa, data if real else None)
            ssd.clock.advance(1500)
        stats = power_cycle_against_the_eager_relink(ssd)
        records += stats["delta_records"]
        unresolvable += stats["unresolvable_deltas"]
    assert records > 1000 and unresolvable > 0
    report = DeviceAuditor(ssd).audit(sample_lpa_stride=5)
    assert report.clean, report.violations

def test_a_head_stamp_reference_needs_the_floor():
    """The head's own stamp answers a reference only when it is newer
    than the LPA's newest record (the floor), as the eager walk's set
    held only chain stamps above it.  No workload leaves a record newer
    than the head, so one is built by hand: a compressed record of a
    version stamped after the head whose reference nobody holds.  Both
    it and v0's delta against the head are pruned, and v0's data page,
    which no kept record preserves, is retained again."""
    ssd = TestTrimTombstone.real_ssd()
    write = TestTrimTombstone.write
    (t0, v0), (t1, v1) = write(ssd, 7, b"v0"), write(ssd, 7, b"v1")
    v0_ppa = ssd.device.core.back_pointer[ssd.mapping.lookup(7)]
    assert ssd.compress_or_lose(v0_ppa, ssd.clock.now_us)[1] == 1
    delta = ssd.index.delta_head(7)
    assert delta.ref_ts == t1
    forged = DeltaRecord(
        lpa=7,
        version_ts=ssd.clock.now_us,
        ref_ts=t1 + 1,
        payload=delta.payload,
        size_bytes=delta.size_bytes,
        segment_id=delta.segment_id,
    )
    assert forged.version_ts > t1
    ssd.deltas.add_records([forged], ssd.clock.now_us)
    TestTrimTombstone.flush_deltas(ssd)
    assert forged.flash_ppa is not None and delta.flash_ppa is not None

    stats = power_cycle_against_the_eager_relink(ssd)
    assert stats["unresolvable_deltas"] == 2
    assert ssd.index.delta_head(7) is None
    assert TestTrimTombstone.history(ssd, 7) == [
        (t1, "current", v1), (t0, "data-page", v0),
    ]
    report = DeviceAuditor(ssd).audit()
    assert report.clean, report.violations


def _timed_data_page_ts(ssd, lpa):
    """The stamps of the data-page versions the timed walk,
    ``version_chain``, reaches from ``lpa``'s head: the leading run of
    its answer, up to the first version from the delta chain."""
    stamps = []
    for version in ssd.version_chain(lpa, payloads=False)[0]:
        if version.source not in ("current", "data-page"):
            break
        stamps.append(version.timestamp_us)
    return stamps


def _assert_reachable_mirrors_walk(ssd, committed_columns):
    """Recovery's column walk reaches what the timed walk reaches, for
    every mapped LPA and under every ``committed`` given; returns
    ``{lpa: [chain ppas, head first]}``."""
    from repro.timessd.recovery import _reachable_data_ts

    core = ssd.device.core
    chains = {}
    for lpa in ssd.mapping.mapped_lpas():
        head = ssd.mapping.lookup(lpa)
        chain = list(ssd.index.older_versions(lpa, head))
        stamps = _timed_data_page_ts(ssd, lpa)
        assert [core.timestamp_us[ppa] for ppa in chain] == stamps, lpa
        for committed in committed_columns:
            got = _reachable_data_ts(ssd, lpa, head, committed)
            assert got == set(stamps), lpa
        chains[lpa] = chain
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
    directly; it must reach exactly the data-page versions the timed
    ``version_chain`` reaches from the same head — on a churned device
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
    assert sum(sweep.committed) == len(sweep.user_pages[0]) > len(chains)
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
        power_cycle_against_the_eager_relink(ssd)
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
