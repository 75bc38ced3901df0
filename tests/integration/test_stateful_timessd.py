"""Hypothesis stateful test: TimeSSD vs a perfect-recall model.

Random interleavings of writes, trims, clock advances, reads and
rollbacks run against a tiny real-content TimeSSD while a Python dict
keeps perfect history.  Invariants checked continuously:

* a read always returns the newest written content (or None after trim);
* every version the device reports matches a (timestamp, content) pair
  that was actually written, and every deletion it reports a trim;
* the version chain is strictly newest-first;
* rollback restores exactly the model's state at the target time —
  content, deleted, or absent (``None``: nothing written yet) — unless
  a power cut lost that version, and then an older one or absent;
* with no power cut since ``t``, ``rollback_all(t)`` leaves every LPA
  ever written reading the model's state at ``t``;
* a power cut (``simulate_power_loss`` + ``rebuild_from_flash``) leaves
  a device fsck calls clean and costs only what it legally may: every
  acked write keeps its bytes, a trim may be forgotten (then the LPA
  reads its last written content again), versions may drop out of a
  chain with the RAM delta buffers — the deleted versions an unflushed
  tombstone hands the walk to among them — but never one found on a
  data page otherwise; never a phantom, never out of order.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.errors import RetentionViolationError
from repro.common.units import SECOND_US
from repro.timekits.api import TimeKits, pick_as_of
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.ssd import TimeSSD
from repro.timessd.verify import DeviceAuditor

from tests.conftest import small_geometry

LPAS = st.integers(min_value=0, max_value=15)
PAYLOAD_SEEDS = st.integers(min_value=0, max_value=255)


class TimeSSDMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ssd = TimeSSD(
            TimeSSDConfig(
                geometry=small_geometry(blocks_per_plane=32),
                content_mode=ContentMode.REAL,
                retention_floor_us=3600 * SECOND_US,
                bloom_capacity=64,
            )
        )
        self.kits = TimeKits(self.ssd)
        self.page_size = self.ssd.device.geometry.page_size
        # lpa -> list of (timestamp, content); None content means trimmed.
        self.history = {}
        self.full = False
        self.last_cut_us = None  # clock at the last power cut's mount

    def _payload(self, lpa, seed):
        body = b"%03d:%03d:%012d" % (lpa, seed, self.ssd.clock.now_us)
        return body.ljust(self.page_size, bytes([seed]))

    @rule(lpa=LPAS, seed=PAYLOAD_SEEDS)
    def write(self, lpa, seed):
        if self.full:
            return
        payload = self._payload(lpa, seed)
        stamp = self.ssd.clock.now_us
        try:
            self.ssd.write(lpa, payload)
        except RetentionViolationError:
            self.full = True
            return
        self.history.setdefault(lpa, []).append((stamp, payload))
        self.ssd.clock.advance(1000)

    @rule(lpa=LPAS)
    def trim(self, lpa):
        if self.full:
            return
        self.ssd.trim(lpa)
        if self._current(lpa) is not None:  # trimming nothing is no event
            self.history[lpa].append((self.ssd.clock.now_us, None))
        self.ssd.clock.advance(1000)

    @rule(delta_ms=st.integers(min_value=1, max_value=50_000))
    def advance(self, delta_ms):
        self.ssd.clock.advance(delta_ms * 1000)

    def _current(self, lpa):
        entries = self.history.get(lpa)
        return entries[-1][1] if entries else None

    @rule(lpa=LPAS)
    def read_matches_model(self, lpa):
        data, _ = self.ssd.read(lpa)
        expected = self._current(lpa)
        assert data == expected

    @rule(lpa=LPAS)
    def chain_is_sound(self, lpa):
        if self.full:
            return
        versions, _ = self.ssd.version_chain(lpa)
        stamps = [v.timestamp_us for v in versions]
        assert stamps == sorted(stamps, reverse=True), "chain not newest-first"
        # Two ops can share a stamp (a rollback's TRIM and the write
        # after it), so each version is matched in op order, newest
        # first, never by stamp alone; versions may drop out between.
        pending = self.history.get(lpa, [])[::-1]
        for v in versions:
            stamped = [k for k, (ts, _c) in enumerate(pending) if ts == v.timestamp_us]
            assert stamped, "phantom version"
            k = next((k for k in stamped if pending[k][1] == v.data), None)
            assert k is not None, "version content corrupted"
            del pending[: k + 1]
            # A deletion only at a trim stamp, a trim stamp only as one.
            assert (v.source == "deleted") == (v.data is None)

    @rule(lpa=LPAS, back_ms=st.integers(min_value=0, max_value=100_000))
    def rollback_restores_past(self, lpa, back_ms):
        if self.full or not self.history.get(lpa):
            return
        t = max(0, self.ssd.clock.now_us - back_ms * 1000)
        versions, _ = self.ssd.version_chain(lpa)
        target = pick_as_of(versions, t)
        # The model's state as of t is its newest entry at or before t
        # (None content: deleted), or absent when there is none.  Only a
        # power cut may lose it (an unflushed tombstone, a version in a
        # RAM delta buffer); then the device answers an older version,
        # or absent.
        past = [ts for ts, _content in self.history[lpa] if ts <= t]
        want = past[-1] if past else None
        got = None if target is None else target.timestamp_us
        if want is not None and all(v.timestamp_us != want for v in versions):
            assert self.last_cut_us is not None, "a version lost without a cut"
            assert got is None or got < want
        else:
            assert got == want
        if target is not None:
            assert (target.timestamp_us, target.data) in self.history[lpa]
        was = self._current(lpa)
        try:
            self.kits.rollback(lpa, cnt=1, t=t)
        except RetentionViolationError:
            self.full = True
            return
        data, _ = self.ssd.read(lpa)
        assert data == (None if target is None else target.data)
        self._note_rollback(lpa, was, data)

    @rule(back_ms=st.integers(min_value=0, max_value=100_000))
    def rollback_all_restores_past(self, back_ms):
        if self.full:
            return
        t = max(0, self.ssd.clock.now_us - back_ms * 1000)
        if self.last_cut_us is not None and t < self.last_cut_us:
            return  # a cut since t may have lost the state at t
        was = {lpa: self._current(lpa) for lpa in self.history}
        try:
            self.kits.rollback_all(t)
        except RetentionViolationError:
            self.full = True
            return
        for lpa, entries in self.history.items():
            past = [content for ts, content in entries if ts <= t]
            data, _ = self.ssd.read(lpa)
            assert data == (past[-1] if past else None), "LPA %d not as of t" % lpa
            self._note_rollback(lpa, was[lpa], data)

    def _note_rollback(self, lpa, was, data):
        """Mirror in the model what a rollback did to ``lpa``, which
        read ``was`` before it and reads ``data`` after it."""
        if data is None:
            if was is not None:  # the rollback TRIMmed it: a new deletion
                stamp = self.ssd.index.delta_head(lpa).version_ts
                self.history[lpa].append((stamp, None))
            return
        head = self.ssd.mapping.lookup(lpa)
        actual_ts = self.ssd.device.peek_page(head).oob.timestamp_us
        if (actual_ts, data) not in self.history[lpa]:
            # The rollback wrote a new version (also when an *older*
            # version holds the same bytes as the current one, or a TRIM
            # holds its stamp); mirror it in the model with the timestamp
            # the device actually stamped.
            self.history[lpa].append((actual_ts, data))

    @rule()
    def power_cut_and_recover(self):
        if self.full:
            return
        kept = {lpa: self._on_data_pages(lpa) for lpa in self.history}
        simulate_power_loss(self.ssd)
        rebuild_from_flash(self.ssd)
        self.last_cut_us = self.ssd.clock.now_us
        report = DeviceAuditor(self.ssd).audit()
        assert report.clean, report.violations
        for lpa, entries in self.history.items():
            stamps = {v.timestamp_us for v in self.ssd.version_chain(lpa)[0]}
            assert kept[lpa] <= stamps, "a retained data page lost by the cut"
            data, _ = self.ssd.read(lpa)
            if entries[-1][1] is not None:
                assert data == entries[-1][1], "acked write lost by the cut"
            elif data is not None:
                # Trim durability across power loss is advisory
                # (timessd/recovery.py): the OOB sweep may find the LPA's
                # last written version again.  Nothing older, nothing
                # else — and from here on the model believes the device.
                while entries[-1][1] is None:
                    entries.pop()
                assert data == entries[-1][1], "a cut resurrected stale data"

    def _on_data_pages(self, lpa):
        """Stamps of the versions ``lpa``'s walk finds on data pages that
        a cut must keep: all but the branch of a tombstone still in a RAM
        delta buffer, which the cut forgets with its record."""
        flushed = {
            record.version_ts
            for record in self.ssd.index.live_deltas(self.ssd.index.delta_head(lpa))
            if record.data_back is not None and record.flash_ppa is not None
        }
        stamps, durable = set(), True
        for v in self.ssd.version_chain(lpa)[0]:
            if v.source == "deleted":
                durable = v.timestamp_us in flushed
            elif durable and v.source in ("current", "data-page"):
                stamps.add(v.timestamp_us)
        return stamps

    @invariant()
    def accounting_is_sane(self):
        assert self.ssd.retained_pages >= 0
        assert self.ssd.block_manager.free_block_count >= 0


TestTimeSSDStateful = TimeSSDMachine.TestCase
TestTimeSSDStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


def test_a_rollback_trim_and_the_write_after_it_share_a_microsecond():
    # A rollback to before an LPA's first write TRIMs it at the end of
    # its walk, and the TRIM completes at its arrival, so a write issued
    # next carries the same stamp.  The chain lists the later op first.
    machine = TimeSSDMachine()
    machine.advance(delta_ms=1)
    machine.write(lpa=7, seed=1)
    for _ in range(3):
        machine.advance(delta_ms=1)
    machine.rollback_restores_past(lpa=7, back_ms=5)
    trim_ts = machine.history[7][-1][0]
    machine.write(lpa=7, seed=2)
    assert [ts for ts, _content in machine.history[7]] == [1000, trim_ts, trim_ts]
    machine.chain_is_sound(lpa=7)
    machine.read_matches_model(lpa=7)
    machine.rollback_restores_past(lpa=7, back_ms=0)
    machine.chain_is_sound(lpa=7)
