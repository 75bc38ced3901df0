"""Hypothesis stateful test: TimeSSD vs a perfect-recall model.

Random interleavings of writes, trims, clock advances, reads and
rollbacks run against a tiny real-content TimeSSD while a Python dict
keeps perfect history.  Invariants checked continuously:

* a read always returns the newest written content (or None after trim);
* every version the device reports matches a (timestamp, content) pair
  that was actually written;
* the version chain is strictly newest-first;
* rollback restores exactly the content that was current at the target
  time (when that version is still retained);
* a power cut (``simulate_power_loss`` + ``rebuild_from_flash``) leaves
  a device fsck calls clean and costs only what it legally may: every
  acked write keeps its bytes, a trim may be forgotten (then the LPA
  reads its last written content again), versions may drop out of a
  chain with the RAM delta buffers — never a phantom, never out of
  order.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.errors import RetentionViolationError
from repro.common.units import SECOND_US
from repro.timekits.api import TimeKits
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
        if self.history.get(lpa):
            self.history[lpa].append((self.ssd.clock.now_us, None))
        self.ssd.clock.advance(1000)

    @rule(delta_ms=st.integers(min_value=1, max_value=50_000))
    def advance(self, delta_ms):
        self.ssd.clock.advance(delta_ms * 1000)

    def _current(self, lpa):
        entries = [e for e in self.history.get(lpa, []) if e[1] is not None]
        trims = [e for e in self.history.get(lpa, []) if e[1] is None]
        if not self.history.get(lpa):
            return None
        last = self.history[lpa][-1]
        return last[1]

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
        written = {
            ts: content for ts, content in self.history.get(lpa, []) if content is not None
        }
        for v in versions:
            assert v.timestamp_us in written, "phantom version"
            assert v.data == written[v.timestamp_us], "version content corrupted"

    @rule(lpa=LPAS, back_ms=st.integers(min_value=0, max_value=100_000))
    def rollback_restores_past(self, lpa, back_ms):
        if self.full or not self.history.get(lpa):
            return
        t = max(0, self.ssd.clock.now_us - back_ms * 1000)
        versions, _ = self.ssd.version_chain(lpa)
        if not versions:
            return
        candidates = [v for v in versions if v.timestamp_us <= t]
        target = candidates[0] if candidates else versions[-1]
        try:
            self.kits.rollback(lpa, cnt=1, t=t)
        except RetentionViolationError:
            self.full = True
            return
        data, _ = self.ssd.read(lpa)
        assert data == target.data
        head = self.ssd.mapping.lookup(lpa)
        actual_ts = self.ssd.device.peek_page(head).oob.timestamp_us
        if all(ts != actual_ts for ts, _content in self.history[lpa]):
            # The rollback wrote a new version (also when an *older*
            # version holds the same bytes as the current one); mirror it
            # in the model with the timestamp the device actually stamped.
            self.history[lpa].append((actual_ts, data))

    @rule()
    def power_cut_and_recover(self):
        if self.full:
            return
        simulate_power_loss(self.ssd)
        rebuild_from_flash(self.ssd)
        report = DeviceAuditor(self.ssd).audit()
        assert report.clean, report.violations
        for lpa, entries in self.history.items():
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

    @invariant()
    def accounting_is_sane(self):
        assert self.ssd.retained_pages >= 0
        assert self.ssd.block_manager.free_block_count >= 0


TestTimeSSDStateful = TimeSSDMachine.TestCase
TestTimeSSDStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
