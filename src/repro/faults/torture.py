"""Crash-point torture: cut power at every flash op and prove recovery.

The harness replays one deterministic host workload (writes and trims
over a small working set) against a REAL-content TimeSSD, once cleanly
to count the flash operations it performs, then once per enumerated
crash point with a :class:`~repro.faults.plan.FaultPlan` arming a power
cut at that exact op.  After each cut it rebuilds the firmware tables
from flash and asserts the recovery contract:

* the device audit (:class:`~repro.timessd.verify.DeviceAuditor`) finds
  zero invariant violations;
* every write acknowledged before the cut reads back byte-identical
  (serial host: a write is acked only after its flash program completed,
  so its page carries an intact OOB sequence tag and must win the
  rebuilt mapping);
* the device accepts and serves new writes afterwards, and a second
  audit stays clean.

Acked *trims* are exempt from the read-back check.  A TRIM is a
tombstone record in the LPA's delta chain: it survives a cut once its
delta page is programmed, and is advisory before that — a crash may
resurrect the pre-trim data, the contract of a real SSD's DSM
deallocate across power loss.

This module is a library (no printing); the ``repro torture`` CLI
formats the :class:`TortureReport`.
"""

import random
from dataclasses import dataclass, field, replace

from repro.common.errors import PowerCutError, ReproError
from repro.common.units import SECOND_US
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.flash.geometry import FlashGeometry
from repro.flash.reliability import FlashReliability
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.recovery import rebuild_from_flash, simulate_power_loss
from repro.timessd.ssd import TimeSSD
from repro.timessd.verify import DeviceAuditor

#: Page size of the torture device — small so REAL-content payloads and
#: delta compression stay cheap across hundreds of crash points.
PAGE_SIZE = 256


@dataclass
class TortureConfig:
    """Knobs of one torture run (defaults suit CI smoke tests)."""

    #: Host operations (writes + trims) in the replayed workload.
    ops: int = 400
    #: Distinct LPAs the workload touches.
    working_set: int = 48
    #: Fraction of post-fill host ops that are trims.
    trim_ratio: float = 0.10
    #: Test every k-th flash op as a crash point (1 = exhaustive).
    crash_every: int = 1
    #: Tear the program the cut lands on (vs. cutting cleanly before it).
    torn: bool = True
    seed: int = 0x70B7
    #: Host think time between ops (lets idle-time compression kick in).
    gap_us: int = 700
    #: Writes issued after each recovery to prove the device still works.
    post_recovery_writes: int = 8
    #: Small enough that the default workload forces GC, migrations and
    #: delta flushes — the paths a crash must not corrupt.
    blocks_per_plane: int = 6
    #: Enable media aging + the patrol scrubber.  The enumerated crash
    #: points then also land inside patrol reads, read-retry ladders and
    #: scrub refresh migrations — proving a power cut mid-refresh never
    #: loses the at-risk page's only intact copy.  Use
    #: :func:`scrub_preset` rather than flipping this alone: scrub work
    #: only runs in predicted-idle windows, so the host gap must exceed
    #: the idle threshold.
    scrub: bool = False
    #: Write recovery checkpoints every this many blocks' worth of page
    #: programs (None = off).  With it on, the enumerated crash points
    #: also land inside checkpoint part/root programs and the
    #: superseded-block erases — proving a cut mid-checkpoint always
    #: falls back to a consistent (possibly older) image.
    checkpoint_interval_blocks: int = None
    #: ECC budget of the scrub-torture device — small, so aging pressure
    #: (and refresh work) is visible within the short replay.
    scrub_ecc_bits: int = 8
    #: Raw BER tuned so the mean error count sits near half the budget:
    #: refreshes are frequent, full-ladder losses vanishingly rare.
    scrub_raw_ber: float = 0.002


def scrub_preset(**overrides):
    """A :class:`TortureConfig` that exercises the scrub/refresh paths.

    The host gap is stretched past the idle predictor's threshold
    (10 ms) so every inter-op gap opens a housekeeping window for the
    patrol scrubber, and the op count is kept small because scrub adds
    patrol reads (more flash ops → more crash points).
    """
    config = TortureConfig(scrub=True, ops=160, gap_us=15_000)
    return replace(config, **overrides) if overrides else config


@dataclass
class CrashOutcome:
    """What one crash point did to the recovery contract."""

    cut_at: int
    acked_ops: int = 0
    torn_pages: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


@dataclass
class TortureReport:
    """Aggregate of a full crash-point sweep."""

    total_flash_ops: int
    crash_every: int
    outcomes: list = field(default_factory=list)
    #: Scrub activity of the clean (fault-free) run — nonzero proves the
    #: crash-point sweep actually covered patrol/refresh flash ops.
    scrub_patrol_reads: int = 0
    scrub_refreshes: int = 0

    @property
    def cuts_tested(self):
        return len(self.outcomes)

    @property
    def failures(self):
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self):
        return not self.failures

    def summary_lines(self):
        """Human-readable report (the CLI prints these)."""
        lines = [
            "torture: %d flash ops, %d crash points (every %d), %s"
            % (
                self.total_flash_ops,
                self.cuts_tested,
                self.crash_every,
                "all recovered" if self.ok else "%d FAILED" % len(self.failures),
            )
        ]
        if self.scrub_patrol_reads or self.scrub_refreshes:
            lines.append(
                "  scrub coverage: %d patrol reads, %d refreshes in the "
                "clean run" % (self.scrub_patrol_reads, self.scrub_refreshes)
            )
        for outcome in self.failures:
            lines.append(
                "  cut@%d (%d ops acked, %d torn pages):"
                % (outcome.cut_at, outcome.acked_ops, outcome.torn_pages)
            )
            lines.extend("    - %s" % p for p in outcome.problems)
        return lines


def build_workload(config):
    """The deterministic host-op list: ``(op, lpa, payload)`` tuples.

    A sequential fill of the working set, then seeded uniform-random
    overwrites and trims.  Payloads name their op and LPA so a lost or
    misdirected write is self-evident on read-back.
    """
    rng = random.Random(config.seed)
    ops = []
    for i in range(config.ops):
        if i < config.working_set:
            kind, lpa = "write", i
        else:
            lpa = rng.randrange(config.working_set)
            kind = "trim" if rng.random() < config.trim_ratio else "write"
        if kind == "write":
            payload = (b"op%06d lpa%05d" % (i, lpa)).ljust(PAGE_SIZE, b"\xAB")
            ops.append(("write", lpa, payload))
        else:
            ops.append(("trim", lpa, None))
    return ops


def _build_ssd(config, plan):
    geometry = FlashGeometry(
        channels=4,
        chips_per_channel=1,
        planes_per_chip=1,
        blocks_per_plane=config.blocks_per_plane,
        pages_per_block=16,
        page_size=PAGE_SIZE,
    )
    extras = {}
    if config.scrub:
        extras = dict(
            reliability=FlashReliability(
                raw_bit_error_rate=config.scrub_raw_ber,
                retention_ber_per_hour=50.0,
                read_disturb_ber_per_read=0.01,
                ecc_correctable_bits=config.scrub_ecc_bits,
                seed=config.seed,
            ),
            patrol_scrub=True,
            # Watermark at 3/4 of the budget: ~20% of patrol reads
            # refresh (steady activity without a refresh storm).
            scrub_risk_fraction=0.75,
            scrub_pages_per_run=8,
        )
    return TimeSSD(
        TimeSSDConfig(
            geometry=geometry,
            retention_floor_us=2 * SECOND_US,
            bloom_capacity=128,
            bloom_segment_max_age_us=SECOND_US // 2,
            content_mode=ContentMode.REAL,
            faults=FaultHooks(plan),
            checkpoint_interval_blocks=config.checkpoint_interval_blocks,
            **extras,
        )
    )


def _replay(ssd, workload, gap_us):
    """Run host ops until the armed power cut fires.

    Returns ``(acked, completed, cut)``: the last acknowledged op per
    LPA, the count of ops acked before the cut, and whether a cut fired.
    An op interrupted by the cut was never acknowledged.
    """
    acked = {}
    completed = 0
    for op, lpa, payload in workload:
        try:
            if op == "write":
                ssd.write(lpa, payload)
            else:
                ssd.trim(lpa)
        except PowerCutError:
            return acked, completed, True
        acked[lpa] = (op, payload)
        completed += 1
        ssd.clock.advance(gap_us)
    return acked, completed, False


def _clean_run(config, workload):
    """Replay with no fault armed; returns ``(plan, ssd)`` afterwards."""
    plan = FaultPlan(seed=config.seed)
    ssd = _build_ssd(config, plan)
    _replay(ssd, workload, config.gap_us)
    return plan, ssd


def count_flash_ops(config, workload=None):
    """Flash ops the workload performs with no fault armed (clean run)."""
    if workload is None:
        workload = build_workload(config)
    plan, _ssd = _clean_run(config, workload)
    return plan.ops_seen


def run_crash_point(config, cut_at, workload=None):
    """Cut power at flash op ``cut_at``; returns a :class:`CrashOutcome`."""
    if workload is None:
        workload = build_workload(config)
    plan = FaultPlan(seed=config.seed)
    plan.add_power_cut(at_op=cut_at, torn=config.torn)
    ssd = _build_ssd(config, plan)
    acked, completed, cut = _replay(ssd, workload, config.gap_us)
    outcome = CrashOutcome(cut_at, acked_ops=completed)
    if not cut:
        outcome.problems.append(
            "armed power cut at flash op %d never fired" % cut_at
        )
        return outcome

    simulate_power_loss(ssd)
    stats = rebuild_from_flash(ssd)
    outcome.torn_pages = stats["torn_pages"]

    report = DeviceAuditor(ssd).audit()
    outcome.problems.extend("fsck: %s" % v for v in report.violations)

    # Durability: every acked write must read back byte-identical.
    for lpa, (op, payload) in sorted(acked.items()):
        if op != "write":
            continue  # a trim is advisory until flushed (documented above)
        try:
            data = ssd.read(lpa)[0]
        except ReproError as exc:
            outcome.problems.append(
                "acked write lpa %d unreadable after recovery: %r" % (lpa, exc)
            )
            continue
        if data != payload:
            outcome.problems.append(
                "acked write lpa %d lost: got %r" % (lpa, (data or b"")[:24])
            )

    # Liveness: the recovered device keeps serving writes.
    try:
        for i in range(config.post_recovery_writes):
            lpa = i % config.working_set
            payload = (b"post%04d cut%06d" % (i, cut_at)).ljust(
                PAGE_SIZE, b"\xCD"
            )
            ssd.write(lpa, payload)
            ssd.clock.advance(config.gap_us)
            if ssd.read(lpa)[0] != payload:
                outcome.problems.append(
                    "post-recovery write to lpa %d did not stick" % lpa
                )
    except ReproError as exc:
        outcome.problems.append("post-recovery write failed: %r" % exc)
    if config.post_recovery_writes:
        second = DeviceAuditor(ssd).audit()
        outcome.problems.extend(
            "post-recovery fsck: %s" % v for v in second.violations
        )
    return outcome


def run_torture(config=None):
    """Sweep every ``crash_every``-th crash point of the workload."""
    if config is None:
        config = TortureConfig()
    workload = build_workload(config)
    plan, clean_ssd = _clean_run(config, workload)
    total = plan.ops_seen
    metrics = clean_ssd.obs.metrics
    report = TortureReport(
        total_flash_ops=total,
        crash_every=config.crash_every,
        scrub_patrol_reads=metrics.counter("scrub.patrol_reads").value,
        scrub_refreshes=(
            metrics.counter("scrub.refreshed_valid").value
            + metrics.counter("scrub.refreshed_retained").value
        ),
    )
    for cut_at in range(1, total + 1, config.crash_every):
        report.outcomes.append(run_crash_point(config, cut_at, workload))
    return report
