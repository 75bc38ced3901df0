"""Device self-check: an fsck for TimeSSD.

Audits every cross-structure invariant the design relies on.  Used by
the stress tests after heavy churn, exposed on the CLI (``repro fsck``
style usage via the API), and handy when extending the firmware — run
it after any change to GC, the index, or the delta store.

Checked invariants:

* **mapping/PVT agreement** — every mapped LPA's head page is valid and
  holds that LPA; every valid page is some LPA's head;
* **chain soundness** — every version chain can be walked (a walk that
  raises, e.g. on an undecodable delta, is reported with its LPA), is
  strictly newest-first, and every hop passes the OOB verification rule;
* **delta-chain order** — within each generation of an LPA (the
  versions above its newest deletion, then those between one deletion
  and the next) every delta version is older than every surviving
  data-page version (§3.7 invariant);
* **PRT consistency** — reclaimable pages are never valid;
* **free-pool hygiene** — FREE blocks are erased; counts agree;
* **retention accounting** — the retained-page census never goes
  negative and covers only data blocks;
* **segment/delta agreement** — live delta records reference live
  segments; dropped segments own no reachable records.

The chain and segment checks walk every LPA a time query or rollback
can reach: :meth:`TimeSSD.lpas_with_history`, the mapped ones and the
trimmed ones.
"""

from dataclasses import dataclass, field

from repro.common.errors import ReproError
from repro.ftl.block_manager import BlockKind


@dataclass
class AuditReport:
    """Outcome of a device audit."""

    checks_run: int = 0
    violations: list = field(default_factory=list)

    @property
    def clean(self):
        return not self.violations

    def problem(self, message):
        self.violations.append(message)

    def __repr__(self):
        state = "clean" if self.clean else "%d violations" % len(self.violations)
        return "AuditReport(%d checks, %s)" % (self.checks_run, state)


class DeviceAuditor:
    """Runs the full invariant suite against a TimeSSD."""

    def __init__(self, ssd):
        self.ssd = ssd

    def audit(self, sample_lpa_stride=1):
        """Run every check; returns an :class:`AuditReport`.

        ``sample_lpa_stride`` audits every N-th LPA's chain (1 = all of
        them) — chain walks on huge devices can be throttled.
        """
        report = AuditReport()
        self._check_mapping_pvt(report)
        self._check_chains(report, sample_lpa_stride)
        self._check_prt(report)
        self._check_free_pool(report)
        self._check_retention_census(report)
        self._check_segments(report)
        return report

    # --- Individual checks ------------------------------------------------------

    def _check_mapping_pvt(self, report):
        report.checks_run += 1
        ssd = self.ssd
        core = ssd.device.core
        heads = set()
        for lpa in ssd.mapping.mapped_lpas():
            ppa = ssd.mapping.lookup(lpa)
            heads.add(ppa)
            if not ssd.block_manager.is_valid(ppa):
                report.problem("mapped LPA %d head PPA %d not valid" % (lpa, ppa))
                continue
            if not core.state[ppa]:
                report.problem("mapped LPA %d head PPA %d not programmed" % (lpa, ppa))
            elif core.lpa[ppa] != lpa:
                report.problem(
                    "mapped LPA %d head holds LPA %d" % (lpa, core.lpa[ppa])
                )
            elif not core.intact_at(ppa):
                report.problem(
                    "mapped LPA %d head PPA %d has a torn OOB tag" % (lpa, ppa)
                )
        for ppa, valid in enumerate(ssd.block_manager.valid):
            if valid and ppa not in heads:
                report.problem("valid page %d is not any LPA's head" % ppa)

    def _check_chains(self, report, stride):
        report.checks_run += 1
        ssd = self.ssd
        locked = (
            ssd.retention_lock is not None and not ssd.retention_lock.unlocked
        )
        if locked:
            return  # encrypted history cannot be walked while locked
        for lpa in ssd.lpas_with_history()[::stride]:
            try:
                versions, _ = ssd.version_chain(lpa)
            except ReproError as exc:
                report.problem("LPA %d chain cannot be walked: %s" % (lpa, exc))
                continue
            stamps = [v.timestamp_us for v in versions]
            if stamps != sorted(stamps, reverse=True):
                report.problem("LPA %d chain not newest-first: %s" % (lpa, stamps))
            if len(set(stamps)) != len(stamps):
                report.problem("LPA %d chain has duplicate timestamps" % lpa)
            # A deletion closes a generation: the walk then enters the
            # deleted data-page chain, which is older than the deltas above.
            data_ts, delta_ts = [], []
            for v in versions + [None]:
                if v is None or v.source == "deleted":
                    if data_ts and delta_ts and max(delta_ts) >= min(data_ts):
                        report.problem(
                            "LPA %d delta chain overlaps data chain in time" % lpa
                        )
                    data_ts, delta_ts = [], []
                elif v.source.startswith("delta"):
                    delta_ts.append(v.timestamp_us)
                else:
                    data_ts.append(v.timestamp_us)

    def _check_prt(self, report):
        report.checks_run += 1
        ssd = self.ssd
        bm = ssd.block_manager
        for ppa, (reclaimable, valid) in enumerate(zip(bm.reclaimable, bm.valid)):
            if reclaimable and valid:
                report.problem("reclaimable page %d is marked valid" % ppa)

    def _check_free_pool(self, report):
        report.checks_run += 1
        ssd = self.ssd
        geo = ssd.device.geometry
        core = ssd.device.core
        free_seen = 0
        for pba in range(geo.total_blocks):
            kind = ssd.block_manager.kind(pba)
            # A failed block may stay DATA until GC migrates it out, but it
            # must never re-enter the free pool.
            if core.failed[pba] and kind is BlockKind.FREE:
                report.problem("failed block %d is in the free pool" % pba)
            if kind is BlockKind.FREE:
                free_seen += 1
                if core.write_pointer[pba]:
                    report.problem("FREE block %d is not erased" % pba)
        if free_seen != ssd.block_manager.free_block_count:
            report.problem(
                "free-block count %d != %d FREE blocks on device"
                % (ssd.block_manager.free_block_count, free_seen)
            )

    def _check_retention_census(self, report):
        report.checks_run += 1
        ssd = self.ssd
        if ssd.retained_pages < 0:
            report.problem("negative retained-page total: %d" % ssd.retained_pages)
        for pba, count in ssd._retained_per_block.items():
            if count < 0:
                report.problem("block %d retained census negative: %d" % (pba, count))

    def _check_segments(self, report):
        report.checks_run += 1
        ssd = self.ssd
        live_ids = {s.segment_id for s in ssd.blooms.live_segments()}
        # Every reachable delta record must belong to a live segment.
        for lpa in ssd.lpas_with_history():
            record = ssd.index.delta_head(lpa)
            while record is not None and not record.dropped:
                if record.segment_id not in live_ids:
                    report.problem(
                        "LPA %d live delta (ts=%d) in dead segment %d"
                        % (lpa, record.version_ts, record.segment_id)
                    )
                    break
                record = record.back
