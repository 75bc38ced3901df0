"""Seeded-mutation ratchet: a rule earns its place by a bug it catches.

Every row of :data:`MUTATIONS` is one realistic one-edit bug seeded into
a scratch copy of the real ``src/repro`` tree, and names the rule that
must catch it.  The copy is linted with only the claimed rule selected,
so a row proves that *this rule* sees *this bug* in the code as it is
today — not in a synthetic fixture shaped to fit the rule.  The last
test closes the loop: every rule id in the table is either claimed by a
row or listed in :data:`UNSEEDED` with a written reason.  A rule nobody
can write a row for polices nothing; deleting it is licensed by this
file staying green (docs/ANALYSIS.md, "How a rule earns its place").

:data:`FIRMWARE_MUTATIONS` is the same idea one level down: seeded bugs
no lint rule claims, each naming the tier-1 *test* that must fail.  A
rule whose seeded bug a row there catches for less code loses its place
(the nine deleted concurrency rules left theirs here, and so did the
effect-contract table, the address-domain pass and the
raise-after-mutate rule).

``slow``: ~15 whole-tree lint runs and ~40 single-test pytest runs.
``pytest -m slow`` on this file is a ``lint-and-test`` CI step.
"""

import os
import shutil
import subprocess
import sys
from collections import namedtuple

import pytest

from repro.analysis.core import all_rules, analyze_paths, rules_by_id

pytestmark = pytest.mark.slow

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: One seeded bug.  ``edits`` is ``((file under src/repro, old, new),
#: ...)`` — ``old`` must occur exactly once in the file, so a row cannot
#: rot silently when the code around it moves.  ``select`` is what the
#: linter runs (default: just ``rule``); ``says`` are substrings the
#: report must contain; ``cli`` rows go through ``python -m
#: repro.analysis`` with the *mutated* copy on ``sys.path``, proving the
#: linter survives a tree whose runtime no longer imports.
Mutation = namedtuple("Mutation", "rule edits select says cli")


def seed(rule, path, old, new, *more, select=None, says=(), cli=False):
    edits = ((path, old, new),) + tuple(
        more[i:i + 3] for i in range(0, len(more), 3)
    )
    return Mutation(rule, edits, select or rule, says, cli)


#: GC "made async": a firmware function that waits on the scheduler.
#: Caught twice — ``layering-order`` fires on the import, and a function
#: that yields can no longer be called synchronously, so the daemon that
#: calls it fails (the :data:`FIRMWARE_MUTATIONS` twin).
FIRMWARE_YIELD = (
    "ftl/ssd.py",
    "        round_bound = self.gc_round_cost_bound()\n"
    "        target = self.BACKGROUND_GC_HEADROOM",
    "        round_bound = self.gc_round_cost_bound()\n"
    "        from repro.sched.core import Delay\n\n"
    "        yield Delay(round_bound)\n"
    "        target = self.BACKGROUND_GC_HEADROOM",
)

MUTATIONS = (
    # --- determinism ----------------------------------------------------------
    seed(
        "determinism-wallclock",  # host arrival stamped from the wall clock
        "ftl/ssd.py",
        "from repro.common.atomic import atomic_section\n",
        "import time\n\nfrom repro.common.atomic import atomic_section\n",
        "ftl/ssd.py",
        '        """\n        arrival = self.clock.now_us\n'
        "        data, complete = self.serve_read_at(lpa, arrival)\n",
        '        """\n        arrival = int(time.time() * 1_000_000)\n'
        "        data, complete = self.serve_read_at(lpa, arrival)\n",
    ),
    seed(
        "determinism-global-random",  # seeding the shared module RNG
        "timessd/ssd.py",
        "        self._rng = random.Random(config.seed)\n",
        "        random.seed(config.seed)\n        self._rng = random\n",
    ),
    seed(
        "determinism-unseeded-rng",  # the per-device seed dropped
        "timessd/ssd.py",
        "random.Random(config.seed)",
        "random.Random()",
    ),
    # --- hygiene --------------------------------------------------------------
    seed(
        "hygiene-mutable-default",
        "ftl/ssd.py",
        "def write_range(self, start_lpa, npages, pages=None):",
        "def write_range(self, start_lpa, npages, pages=[]):",
    ),
    seed(
        "hygiene-bare-except",  # GC migration swallowing everything
        "ftl/ssd.py",
        "            except UncorrectableReadError:\n"
        "                self.note_lost_valid_page(ppa)\n",
        "            except:\n"
        "                self.note_lost_valid_page(ppa)\n",
    ),
    seed(
        "hygiene-print",  # debug print left in the reclaim path
        "ftl/ssd.py",
        "        self._m_gc_migrated.inc(outcome.migrated_valid)\n",
        "        self._m_gc_migrated.inc(outcome.migrated_valid)\n"
        '        print("reclaim", t, pba, outcome.migrated_valid)\n',
    ),
    seed(
        "hygiene-unit-mix",  # a millisecond dwell taken off a us clock
        "ftl/ssd.py",
        "        if now_us - self._degraded_since_us < self.HEAL_DWELL_US:\n",
        "        if now_us - self.HEAL_DWELL_MS < self._degraded_since_us:\n",
    ),
    seed(
        "unused-suppression",  # a waiver on a line with nothing to waive
        "ftl/ssd.py",
        "        allocate = bm.allocator(StreamId.GC)\n",
        "        allocate = bm.allocator(StreamId.GC)"
        "  # almanac: ignore[layering-flash-api]\n",
        select="unused-suppression,layering-flash-api",
    ),
    # --- layering -------------------------------------------------------------
    seed(
        "layering-order",  # flash -> ftl; used to kill the linter at import
        "flash/device.py",
        "from repro.common.errors import",
        "from repro.ftl.mapping import NULL_PPA\n"
        "from repro.common.errors import",
        cli=True,
    ),
    seed("layering-order", *FIRMWARE_YIELD),
    seed(
        "layering-flash-api",  # the NVMe layer erasing raw flash on TRIM
        "nvme/controller.py",
        "        ssd.serve_trims_at(command.slba, command.nlb, start_us)\n",
        "        ssd.serve_trims_at(command.slba, command.nlb, start_us)\n"
        "        self.ssd.device.erase_block(command.slba, 0)\n",
    ),
    seed(
        "layering-order",  # the observer reaching up into flash
        "obs/metrics.py",
        "from repro.common.errors import ReproError\n",
        "from repro.common.errors import ReproError\n"
        "from repro.flash.geometry import FlashGeometry\n",
    ),
    seed(
        "layering-cycle",  # ftl <-> timessd: same layer, so order is blind
        "ftl/ssd.py",
        "from repro.common.atomic import atomic_section\n",
        "from repro.common.atomic import atomic_section\n"
        "from repro.timessd.config import TimeSSDConfig\n",
    ),
    seed(
        "layering-private-cross-package",  # NVMe kicking FTL-private GC
        "nvme/controller.py",
        "            return ssd.serve_reads_at(command.slba, command.nlb, start_us)\n",
        "            self.ssd._collect_garbage(start_us)\n"
        "            return ssd.serve_reads_at(command.slba, command.nlb, start_us)\n",
    ),
    # --- obs ------------------------------------------------------------------
    seed(
        "obs-uncataloged-metric",  # ROADMAP's example: a renamed counter
        "timessd/ssd.py",
        'metrics.counter("timessd.delta.compressions")',
        'metrics.counter("timessd.delta.compression_count")',
    ),
)

#: One-edit firmware bugs no lint rule claims: ``(file, old, new, the
#: tier-1 test that must fail)``.  ROADMAP item 2's firmware mutation
#: table, run the same way — seeded into the scratch copy, which goes
#: first on the named test's ``PYTHONPATH``.
_PATHS = "tests/nvme/test_path_equivalence.py::"
_SCRUB = "tests/ftl/test_scrub.py::TestScrubTouchesOnlyWhatItRefreshes::"
_RANDOM_ORDER = (
    "    for pba in ssd._rng.sample(\n"
    "        sweep.partial_blocks, len(sweep.partial_blocks)\n"
    "    ):\n"
)
_SENSE = "            complete = self.read_page_with_retry(ppa, start)[0]\n"
_UNPACK = "            data = self.device.core.data[ppa]\n"
_REPLAY = (
    "tests/integration/test_end_to_end.py"
    "::test_trace_replay_leaves_a_clean_device[cut]"
)
_REFERENCE = "                t = read(head_ppa, t)[0]\n"
_CUTS = "tests/faults/test_fault_then_cut.py::"
_BLOOM_MODEL = (
    "tests/timessd/test_bloom.py"
    "::test_memoized_lookup_is_the_newest_first_scan[1-1-1-None]"
)
FIRMWARE_MUTATIONS = (
    # --- the host path: PR 14's disagreements and PR 16's gate -----------------
    (
        "ftl/ssd.py",  # a read-only device accepting TRIM, on any route
        "        self.check_lpa_range(lpa)\n        self.ensure_writable()\n"
        "        self._before_host_request(arrival_us)\n"
        "        old = self.mapping.invalidate(lpa)\n",
        "        self.check_lpa_range(lpa)\n"
        "        self._before_host_request(arrival_us)\n"
        "        old = self.mapping.invalidate(lpa)\n",
        _PATHS + "test_retry_exhausted_write_degrades_the_device",
    ),
    (
        "ftl/ssd.py",  # a rewritten LBA that stays "lost"
        "        self.lost_lpas.pop(lpa, None)  # a rewrite clears the media error\n",
        "",
        _PATHS + "test_rewrite_and_trim_clear_a_lost_lba",
    ),
    (
        "ftl/ssd.py",  # ...and a trimmed one
        "        self.lost_lpas.pop(lpa, None)  # deletion clears the media error\n",
        "",
        _PATHS + "test_trim_alone_clears_a_lost_lba",
    ),
    (
        "ftl/ssd.py",  # a read's translation I/O billed to whoever is next
        "        start = self._translation_delay(arrival_us)\n",
        "        start = arrival_us\n",
        _PATHS + "test_finite_cache_read_pays_its_translation_io",
    ),
    (
        "ftl/ssd.py",  # a failed program that leaves the device writable
        "            self._enter_degraded(exc)\n            raise\n",
        "            raise\n",
        _PATHS + "test_retry_exhausted_write_degrades_the_device",
    ),
    # --- what the deleted concurrency rules' rows seeded -----------------------
    FIRMWARE_YIELD + (
        "tests/sched/test_async_nvme.py"
        "::TestBackgroundDaemons::test_daemons_install_once_and_interleave",
    ),
    (
        "ftl/ssd.py",  # GC fired from inside the user-page commit
        "        ppa = self.block_manager.allocate_page(StreamId.USER)\n"
        "        old = self.mapping.update(lpa, ppa)\n",
        "        self.background_collect(now_us, now_us + 10**9)\n"
        "        ppa = self.block_manager.allocate_page(StreamId.USER)\n"
        "        old = self.mapping.update(lpa, ppa)\n",
        "tests/ftl/test_background_gc.py"
        "::test_back_to_back_traffic_gets_no_background_gc",
    ),
    (
        "nvme/engine.py",  # the classic lost update across a wait
        "            if end > start:\n"
        "                yield At(end)\n"
        "            self._inflight -= 1\n",
        "            inflight = self._inflight\n"
        "            if end > start:\n"
        "                yield At(end)\n"
        "            self._inflight = inflight - 1\n",
        "tests/sched/test_overlap_invariants.py"
        "::TestRealConcurrency::test_nothing_stays_in_flight_across_pumps",
    ),
    (
        "sched/tasks.py",  # the Delay() wrapper forgotten
        "ssd.gc_round_cost_bound())\n"
        "        yield Delay(end_us - now_us or idle_us)\n",
        "ssd.gc_round_cost_bound())\n"
        "        yield end_us - now_us or idle_us\n",
        "tests/sched/test_schedule_fuzzer.py"
        "::test_differential_oracle_across_schedules",
    ),
    (
        "sched/tasks.py",  # the expiry daemon stops once at its target
        "        ssd.expire_retention_step(loop.now_us, target_window_us)\n",
        "        if not ssd.expire_retention_step(loop.now_us, "
        "target_window_us):\n"
        "            return\n",
        "tests/sched/test_schedule_fuzzer.py"
        "::test_differential_oracle_across_schedules",
    ),
    (
        "ftl/block_manager.py",  # a bare decorator: ValueError at import
        "    @atomic_section(\n"
        '        "clearing the page marks, forgetting the append point and "\n'
        '        "returning the block to the free pool (or retiring it) must be "\n'
        '        "one step: in between, the block belongs to nobody (valid-page "\n'
        '        "guard raises before any mutation)"\n'
        "    )\n",
        "    @atomic_section\n",
        "tests/ftl/test_block_lifecycle.py"
        "::test_retiring_a_block_in_service_forgets_its_marks",
    ),
    (
        "timessd/retention.py",  # a class renamed under its importer
        "class GCOverheadEstimator:",
        "class OverheadEstimator:",
        "tests/timessd/test_retention.py"
        "::TestGCOverheadEstimator::test_equation_1_arithmetic",
    ),
    # --- what the deleted effect contracts' rows seeded ------------------------
    (
        "ftl/recovery.py",  # recovery adopting blocks in random order
        "    for pba in sweep.partial_blocks:\n",
        _RANDOM_ORDER,
        "tests/ftl/test_checkpoint.py"
        "::test_checkpointed_recovery_matches_full_scan_exactly",
    ),
    (
        "timessd/recovery.py",  # ...and its TimeSSD twin
        "    for pba in sweep.partial_blocks:\n",
        _RANDOM_ORDER,
        "tests/timessd/test_power_loss.py"
        "::test_recovery_draws_nothing_from_the_device_rng",
    ),
    (
        "ftl/ssd.py",  # read-disturb "fix": relocate on read
        _SENSE + _UNPACK,
        _SENSE
        + "            self.relocate_block(\n"
        "                self.device.geometry.block_of_page(ppa), start\n"
        "            )\n"
        + _UNPACK,
        "tests/ftl/test_ssd.py::test_host_reads_mutate_no_flash",
    ),
    (
        "ftl/ssd.py",  # a program in the read path
        _SENSE + _UNPACK,
        _SENSE
        + "            self.device.program_page(\n"
        "                ppa, self.device.core.data[ppa], self.device.core.oob_at(ppa), start\n"
        "            )\n"
        + _UNPACK,
        "tests/ftl/test_ssd.py::test_host_reads_mutate_no_flash",
    ),
    (
        # A fault hook on the side-effect-free peek (guarded likewise: a
        # device built without hooks has ``faults = None``).
        "flash/device.py",
        "        self.geometry.check_ppa(ppa)\n        return Page(self.core, ppa)\n",
        "        self.geometry.check_ppa(ppa)\n"
        "        if self.faults is not None:\n"
        "            self.faults.on_read(self, ppa)\n"
        "        return Page(self.core, ppa)\n",
        "tests/faults/test_hooks.py"
        "::TestEraseAndRead::test_op_counter_spans_all_op_types",
    ),
    (
        "obs/metrics.py",  # a metric emit site raising outside ReproError
        '            raise ReproError("latency cannot be negative")\n',
        '            raise ValueError("latency cannot be negative")\n',
        "tests/obs/test_metrics.py::TestLatencyHistogram::test_rejects_negative",
    ),
    (
        # Patrol order drawn from the foreground RNG.  Guarded, so the row
        # proves the property and not that a RegularSSD has no ``_rng``.
        "ftl/scrub.py",
        "        order = self._patrol_order()\n",
        "        order = self._patrol_order()\n"
        '        if getattr(ssd, "_rng", None):\n'
        "            ssd._rng.shuffle(order)\n",
        _SCRUB + "test_a_scrub_window_draws_nothing_from_the_device_rng",
    ),
    (
        "ftl/scrub.py",  # scrub erasing outside the refresh API
        "            # Lost despite the full ladder: nothing left to refresh.\n",
        "            ssd.device.erase_block(\n"
        "                ssd.device.geometry.block_of_page(ppa), now_us\n"
        "            )\n",
        _SCRUB + "test_an_uncorrectable_patrol_read_touches_no_flash",
    ),
    # --- what the deleted address-domain rules' rows seeded --------------------
    (
        "timessd/gc.py",  # the chain head's LBA read from the wrong OOB field
        "        lpa = core.lpa[ppa]\n",
        "        lpa = core.back_pointer[ppa]\n",
        "tests/timessd/test_gc.py"
        "::TestReclaimBlock::test_reclaim_compresses_retained_history",
    ),
    (
        "ftl/ssd.py",  # an LBA tested as a PPA
        "        start = self._translation_delay(arrival_us)\n"
        "        if ppa == NULL_PPA:\n",
        "        start = self._translation_delay(arrival_us)\n"
        "        if lpa == NULL_PPA:\n",
        "tests/ftl/test_ssd.py::test_read_unwritten_returns_none",
    ),
    (
        "timessd/ssd.py",  # the bloom filter keyed by the wrong domain
        "        segment = self.blooms.record_invalidation(old_ppa)\n",
        "        segment = self.blooms.record_invalidation(lpa)\n",
        "tests/timessd/test_timessd.py"
        "::TestRetentionUnderGC::test_versions_survive_gc_as_deltas",
    ),
    (
        "ftl/ssd.py",  # swapped positional arguments
        "                t = migrate(ppa, t)[1]\n",
        "                t = migrate(t, ppa)[1]\n",
        "tests/ftl/test_ssd.py::test_gc_preserves_all_current_data",
    ),
    # --- the one-of-each GC steps (PR 19) --------------------------------------
    (
        "ftl/block_manager.py",  # an erased block whose PRT bits outlive it
        "        for column in (self.valid, self.reclaimable, self.at_risk):\n",
        "        for column in (self.valid, self.at_risk):\n",
        "tests/timessd/test_column_loops.py"
        "::test_reclaim_dispatches_every_page_of_the_torn_block",
    ),
    (
        "ftl/scrub.py",  # scrub refreshes a popped PPA without checking its at-risk bit
        "            if not at_risk[ppa]:\n"
        "                queue.popleft()  # no longer at risk: costs no budget\n"
        "                continue\n",
        "",
        "tests/ftl/test_scrub.py::TestAnEraseForgetsTheQueue"
        "::test_a_page_erased_before_its_turn_costs_no_budget",
    ),
    (
        "ftl/ssd.py",  # a migrated page left valid in the victim
        "                if valid[ppa]:\n"
        "                    valid[ppa] = 0\n"
        "                    valid_per_block[ppa // pages_per_block] -= 1\n",
        "",
        "tests/ftl/test_ssd.py::test_gc_reclaims_space_under_churn",
    ),
    (
        "ftl/ssd.py",  # foreground rounds nobody counts (TimeSSD, PRs 4-18)
        "            self._collect_garbage(now_us)\n"
        "            self._m_gc_runs.inc()\n",
        "            self._collect_garbage(now_us)\n",
        "tests/obs/test_device_metrics.py"
        "::TestGCAccounting::test_gc_run_counters_match_properties",
    ),
    (
        # The baseline's old timing: copies programmed at round start.  The
        # copy's program is issued inside the device copy now, so the bug
        # is seeded there: a program issued when its read is, not once
        # the read completes (ROADMAP item 1's cursor row).
        "flash/device.py",
        "        return dst, self._book_program(pba, dst, sensed), corrected\n",
        "        return dst, self._book_program(pba, dst, now_us), corrected\n",
        "tests/ftl/test_ssd.py::test_reclaim_programs_each_copy_after_its_read",
    ),
    # --- the TimeKits walk: stamp-only (PR 20), one read per delta page --------
    (
        "timessd/ssd.py",  # a time query billed a decompressor it never runs
        "            if record.compressed and payloads:\n",
        "            if record.compressed:\n",
        "tests/timessd/test_timessd.py"
        "::test_stamp_only_walk_reads_what_the_full_walk_reads_never_decompresses",
    ),
    (
        "timekits/api.py",  # every LPA of a command re-reading the same delta page
        "                delta_pages=delta_pages,\n",
        "",
        "tests/timekits/test_api.py"
        "::TestAddrQueries::test_one_command_reads_a_shared_delta_page_once",
    ),
    (
        "timekits/api.py",  # a trimmed LPA's writes missing from the chronology
        "            self.ssd.lpas_with_history(), threads, payloads=False\n",
        "            list(self.ssd.mapping.mapped_lpas()), threads, payloads=False\n",
        "tests/timekits/test_api.py"
        "::TestTimeQueries::test_time_queries_list_writes_to_since_trimmed_lpas",
    ),
    (
        "timessd/ssd.py",  # a tombstone hiding the versions it deleted
        "                if record.data_back is not None:\n"
        "                    for ppa in hops(lpa, record.data_back, record.version_ts):\n",
        "                if False:\n"
        "                    for ppa in hops(lpa, record.data_back, record.version_ts):\n",
        "tests/timekits/test_api.py::TestRollback"
        "::test_rollback_restores_an_lpa_trimmed_after_t",
    ),
    # --- the TimeKits walk from the OOB columns ---------------------------------
    (
        # A chain hop read raw with the reliability model on: the walk reads
        # through ``read_page_with_retry``, whose use of the one ladder
        # predicate is the only thing between a hop and the ladder.
        "ftl/ssd.py",
        "        if not self._ladder_on():\n"
        "            return self.device.read_page(ppa, now_us)\n",
        "        if True:\n"
        "            return self.device.read_page(ppa, now_us)\n",
        "tests/timekits/test_api.py::TestMarginalMedia"
        "::test_a_retained_version_is_read_through_the_retry_ladder",
    ),
    (
        # A decompression booked inside the read pass, as a walk that
        # decodes each delta as it reaches it books it: every read
        # behind it starts later on its lane.
        "timessd/ssd.py",
        "                entries.append(record)\n"
        "                if until_ts is not None and record.version_ts <= until_ts:\n",
        "                if record.compressed and payloads:\n"
        "                    t = device.timelines.schedule(\n"
        "                        0, t, device.timing.delta_decompress_us\n"
        "                    )\n"
        "                entries.append(record)\n"
        "                if until_ts is not None and record.version_ts <= until_ts:\n",
        "tests/timessd/test_column_loops.py"
        "::test_version_chain_matches_the_read_result_walk[clean-media]",
    ),
    (
        "timessd/ssd.py",  # a RAM decode booked on channel 0
        "                    t += decompress_us\n",
        "                    t = timelines.schedule(0, t, decompress_us)\n",
        "tests/timessd/test_column_loops.py"
        "::test_a_ram_delta_decode_books_no_flash_channel",
    ),
    (
        "timekits/api.py",  # a mapped LPA deleted as of t left alone
        "                    ssd.serve_trim_at(lpa, ssd.clock.now_us)\n",
        "                    pass\n",
        "tests/timekits/test_api.py::TestRollback"
        "::test_rollback_leaves_an_lpa_trimmed_at_t_deleted",
    ),
    (
        "timekits/api.py",  # one cursor per requested thread: 10**12 of them
        "        cursors = [start] * min(threads, len(lpas))\n",
        "        cursors = [start] * threads\n",
        "tests/nvme/test_nvme.py::TestVendorCommands"
        "::test_huge_thread_count_is_served_as_one_thread_per_lba",
    ),
    (
        "ftl/ssd.py",  # ...and per restore thread, in the one write loop
        "        cursors = [arrival_us] * min(threads, len(lpas))\n",
        "        cursors = [arrival_us] * threads\n",
        "tests/nvme/test_nvme.py::TestVendorCommands"
        "::test_huge_thread_count_is_served_as_one_thread_per_lba[ROLLBACK]",
    ),
    # --- one hop rule, one stale-page rule (PR 32) -----------------------------
    (
        "timessd/index.py",  # a hop into a page as old as the version above it
        "                or timestamp_us[back] >= newer_ts\n",
        "                or timestamp_us[back] > newer_ts\n",
        "tests/timessd/test_column_loops.py"
        "::test_chain_hop_check_matches_the_page_view",
    ),
    (
        # GC's copy of a retained page read raw again: FlashGuard's copy is
        # the one GC copy, which decides whether its read climbs the ladder.
        "ftl/ssd.py",
        "            ladder = ladder_on and not sensed\n",
        "            ladder = False\n",
        "tests/security/test_flashguard.py::TestRecovery"
        "::test_gc_reads_a_retained_page_through_the_ladder[rescued]",
    ),
    (
        "ftl/ssd.py",  # GC's copy of a retained page programmed raw again
        "        attempts = range(self.PROGRAM_RETRY_LIMIT + 1)\n",
        "        attempts = range(1)\n",
        "tests/security/test_flashguard.py::TestRecovery"
        "::test_gc_copy_of_a_retained_page_survives_a_program_failure",
    ),
    # --- the delta codec's decode memo ----------------------------------------
    (
        "timessd/delta.py",  # decode memo keyed on the blob alone
        "        key = (blob, ref)\n",
        "        key = blob\n",
        "tests/timessd/test_delta.py::TestDecodeMemo"
        "::test_same_blob_under_two_references_decodes_twice",
    ),
    # --- the one-pass recovery (PR 21) -----------------------------------------
    (
        "timessd/index.py",  # the sweep's seal cache promoted to an authority
        "(committed is not None and committed[back])\n"
        "                    or core.intact_at(back)\n",
        "committed[back] if committed is not None\n"
        "                    else core.intact_at(back)\n",
        "tests/timessd/test_power_loss.py"
        "::test_reachable_reference_timestamps_mirror_the_chain_walk",
    ),
    (
        "timessd/bloom.py",  # a group "known" to be in a filter that rolled over
        "        self._found.clear()\n        self._in_active.clear()\n",
        "        self._found.clear()\n",
        _BLOOM_MODEL,
    ),
    (
        # find_segment answering from its sealed-filter memo before it
        # probes the active filter, which an add may have changed since.
        "timessd/bloom.py",
        "        if group in active.bloom:\n"
        "            self._in_active.add(group)\n"
        "            return active\n"
        "        found = self._found\n"
        "        if group in found:\n"
        "            return found[group]\n",
        "        found = self._found\n"
        "        if group in found:\n"
        "            return found[group]\n"
        "        if group in active.bloom:\n"
        "            self._in_active.add(group)\n"
        "            return active\n",
        _BLOOM_MODEL,
    ),
    (
        # A copy's program (the tail it shares with every program) skipping
        # its zero-latency channel booking: busy_until is the same, the
        # lane's queue depth is not.
        "flash/device.py",
        "        complete = book_then(\n"
        "            channel, timing.bus_transfer_us, chip, timing.program_us, now_us\n"
        "        )\n",
        "        complete = (\n"
        "            book_then(\n"
        "                channel, timing.bus_transfer_us, chip, timing.program_us, now_us\n"
        "            )\n"
        "            if timing.bus_transfer_us\n"
        "            else book(chip, now_us, timing.program_us)\n"
        "        )\n",
        "tests/flash/test_timing.py"
        "::test_fused_bookings_match_two_schedules_per_op[1-1-0]",
    ),
    (
        "ftl/mapping.py",  # a mount billed as host traffic (PRs 8-20)
        "        self._table[:] = head_ppa\n",
        "        for lpa, ppa in enumerate(head_ppa):\n"
        "            if ppa != NULL_PPA:\n"
        "                self.update(lpa, ppa)\n",
        "tests/ftl/test_translation_timing.py"
        "::test_recovery_bills_no_translation_io",
    ),
    # --- what the deleted raise-after-mutate rule's rows seeded ----------------
    (
        # The range check moved after the store: LPA -1 overwrites the
        # last entry (and bills a cache miss) before AddressError escapes.
        "ftl/mapping.py",
        "        if not 0 <= lpa < self.logical_pages:\n"
        "            self._check(lpa)\n"
        "        if self._cache is not None:\n"
        "            self._touch(lpa, writing=True)\n"
        "        old = self._table[lpa]\n"
        "        self._table[lpa] = ppa\n",
        "        if self._cache is not None:\n"
        "            self._touch(lpa, writing=True)\n"
        "        old = self._table[lpa]\n"
        "        self._table[lpa] = ppa\n"
        "        if not 0 <= lpa < self.logical_pages:\n"
        "            self._check(lpa)\n",
        "tests/ftl/test_mapping.py::test_bounds_checked",
    ),
    # --- what the hand-written trace audits targeted: the fsck on the cut ------
    (
        "ftl/ssd.py",  # an overwritten page left valid: an orphan
        "        self.block_manager.invalidate_page(old_ppa)\n",
        "",
        _REPLAY,
    ),
    (
        "timessd/gc.py",  # the compression reference marked reclaimable
        _REFERENCE,
        _REFERENCE + "                ssd.block_manager.mark_reclaimable(head_ppa)\n",
        _REPLAY,
    ),
    (
        # A reclaimed block released unerased.  The replay's next program
        # into it raises FlashStateError before the fsck looks: a FREE
        # block is reused too soon for any free-pool bug to reach the audit.
        "ftl/ssd.py",
        "            complete = self.device.erase_block(pba, now_us)\n",
        "            pass\n",
        _REPLAY,
    ),
    (
        "ftl/ssd.py",  # a range crossing the device end programs its first page
        '        the mark beyond their completions).\n        """\n'
        "        self.check_lpa_range(start_lpa, npages)\n",
        '        the mark beyond their completions).\n        """\n',
        _PATHS + "test_a_request_past_the_device_end_changes_nothing[make_timessd]",
    ),
    # --- one retirement rule, on erase and on mount ----------------------------
    (
        "ftl/recovery_scan.py",  # the mount retiring a grown-bad block on sight
        "    gone = set(condemned) - {ppa // ppb for ppa in head_ppa if ppa != NULL_PPA}\n",
        "    gone = set(condemned)\n",
        _CUTS
        + "test_a_grown_bad_block_keeps_its_acked_pages_across_a_cut[make_timessd]",
    ),
    (
        "ftl/recovery_scan.py",  # the last of two same-stamp versions winning the head
        "                committed[ppa] = 1\n"
        "                if ts > head_ts[lpa]:\n",
        "                committed[ppa] = 1\n"
        "                if ts >= head_ts[lpa]:\n",
        _CUTS
        + "test_a_copy_outranks_its_original_in_a_victim_whose_erase_failed"
        "[make_regular_ssd]",
    ),
    (
        "ftl/recovery_scan.py",  # the mount never reading the erase counter
        "        in_service = bm.in_service(pba)\n",
        "        in_service = not core.failed[pba]\n",
        _CUTS
        + "test_worn_out_blocks_stay_retired_and_the_device_read_only[make_regular_ssd]",
    ),
    # --- one history per LPA -----------------------------------------------------
    (
        "timessd/ssd.py",  # a TRIM that appends no tombstone
        "            self._append_tombstone(lpa, old_ppa, segment, now_us)\n",
        "            pass\n",
        "tests/timessd/test_power_loss.py::TestTrimTombstone"
        "::test_a_flushed_tombstone_keeps_the_lpa_deleted_across_a_cut",
    ),
    (
        "timessd/gc.py",  # the idle compressor admitting against one fixed step
        "            and now_us + device.timing.chain_bound_us(len(backs)) > deadline_us\n",
        "            and now_us + device.timing.idle_compress_floor_us() > deadline_us\n",
        "tests/timessd/test_gc.py::TestIdleWindowBound"
        "::test_a_window_never_ends_past_its_deadline",
    ),
    (
        "timessd/gc.py",  # a chain that does not fit ending the idle window
        "            return now_us, 0\n",
        "            return deadline_us, 0\n",
        "tests/timessd/test_column_loops.py::test_one_window_outcome_is_pinned_exactly",
    ),
    (
        "timessd/recovery.py",  # a deleted branch's pages judged by later records
        "                generations.append([record.version_ts, -1])\n",
        "                pass\n",
        "tests/timessd/test_power_loss.py::TestTrimTombstone"
        "::test_a_compressed_rewrite_leaves_the_deleted_branch_retained",
    ),
    (
        "timessd/recovery.py",  # the head's stamp a reference without the floor
        "        head_ref = head_ts[lpa] if head_ts[lpa] > floor else -1\n",
        "        head_ref = head_ts[lpa]\n",
        "tests/timessd/test_power_loss.py::test_a_head_stamp_reference_needs_the_floor",
    ),
    (
        "timekits/api.py",  # rollback_all walking the mapped LPAs only
        "        return self.rollback_lpas(self.ssd.lpas_with_history(), t, threads)\n",
        "        return self.rollback_lpas(\n"
        "            list(self.ssd.mapping.mapped_lpas()), t, threads\n"
        "        )\n",
        "tests/timekits/test_api.py::TestRollback"
        "::test_rollback_all_restores_an_lpa_trimmed_after_t",
    ),
    # --- one as-of rule ---------------------------------------------------------
    (
        "timekits/api.py",  # an LPA absent at t answered with its oldest version
        "            return version\n    return None\n",
        "            return version\n    return versions[-1] if versions else None\n",
        "tests/timekits/test_api.py::TestAsOfContract"
        "::test_an_lpa_first_written_after_t_was_absent",
    ),
    (
        "timekits/api.py",  # a t the device cannot vouch for answered anyway
        "        if t < start:\n",
        "        if False:\n",
        "tests/timekits/test_api.py::TestAsOfContract"
        "::test_a_t_before_the_guaranteed_start_is_refused",
    ),
    # --- the write path in one pass per page ------------------------------------
    (
        "ftl/ssd.py",  # the GC loop remapping a mapping that names another page
        "                if lookup(lpa) == ppa:\n"
        "                    update(lpa, new_ppa)\n",
        "                update(lpa, new_ppa)\n",
        "tests/timessd/test_column_loops.py"
        "::test_a_migration_remaps_only_a_mapping_that_names_its_source",
    ),
    (
        "flash/timing.py",  # the chain's admission bound without the reference read
        "        return (k + 2) * (self.read_us + bus) + (k + 1) * (\n",
        "        return (k + 1) * (self.read_us + bus) + (k + 1) * (\n",
        "tests/timessd/test_gc.py::TestIdleWindowBound"
        "::test_a_chain_is_left_whole_one_microsecond_short_of_its_bound",
    ),
    # --- one timing model ---------------------------------------------------------
    (
        "flash/timing.py",  # a bound that drops its program term
        "            self.delta_compress_us + bus + self.program_us\n",
        "            self.delta_compress_us + bus\n",
        "tests/flash/test_closed_forms.py"
        "::test_the_chain_bound_is_exact_when_a_lone_record_fills_a_delta_page[bus0]",
    ),
)

#: Rules no row claims, each with the reason seeding it is impractical.
#: Empty today: every rule catches a seeded bug.
UNSEEDED = {}


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A scratch copy of ``src/repro`` with the metric catalog beside it
    (``obs-uncataloged-metric`` walks up to ``docs/OBSERVABILITY.md``)."""
    root = tmp_path_factory.mktemp("ratchet")
    shutil.copytree(
        os.path.join(REPO_ROOT, "src", "repro"),
        str(root / "src" / "repro"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (root / "docs").mkdir()
    shutil.copy(
        os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md"),
        str(root / "docs" / "OBSERVABILITY.md"),
    )
    return root


def _lint(tree, mutation):
    """Rule ids reported for the (mutated) copy, plus a failure detail."""
    target = str(tree / "src" / "repro")
    if not mutation.cli:
        found = analyze_paths([target], rules_by_id(mutation.select.split(",")))
        return {v.rule_id for v in found}, "\n".join(map(str, found))
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", target,
         "--select", mutation.select],
        capture_output=True, text=True, cwd=str(tree),
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
    )
    detail = result.stdout + result.stderr
    assert result.returncode == 1 and "Traceback" not in detail, detail
    fired = {
        rule.rule_id for rule in all_rules()
        if "[%s]" % rule.rule_id in result.stdout
    }
    return fired, detail


def test_unmutated_copy_is_clean(tree):
    # The baseline every row is judged against: whatever fires below is
    # the seeded bug, not something the copy already had.
    assert analyze_paths([str(tree / "src" / "repro")]) == []


@pytest.mark.parametrize(
    "mutation",
    MUTATIONS,
    ids=["%02d-%s" % (i, m.rule) for i, m in enumerate(MUTATIONS)],
)
def test_seeded_bug_is_caught_by_its_claimed_rule(tree, mutation):
    originals = {}
    try:
        for relpath, old, new in mutation.edits:
            path = str(tree / "src" / "repro" / relpath)
            text = _read(path)
            originals.setdefault(path, text)
            assert text.count(old) == 1, (
                "%s: anchor occurs %d times, want exactly 1:\n%s"
                % (relpath, text.count(old), old)
            )
            _write(path, text.replace(old, new))
        fired, detail = _lint(tree, mutation)
    finally:
        for path, text in originals.items():
            _write(path, text)
    assert mutation.rule in fired, (
        "%s did not fire for its seeded bug; the linter said:\n%s"
        % (mutation.rule, detail or "(clean)")
    )
    for text in mutation.says:
        assert text in detail


@pytest.mark.parametrize(
    "relpath, old, new, test_id",
    FIRMWARE_MUTATIONS,
    ids=[
        "%02d-%s" % (i, row[3].rsplit("::", 1)[1])
        for i, row in enumerate(FIRMWARE_MUTATIONS)
    ],
)
def test_seeded_firmware_bug_fails_its_named_test(tree, relpath, old, new, test_id):
    path = str(tree / "src" / "repro" / relpath)
    original = _read(path)
    assert original.count(old) == 1, (relpath, original.count(old), old)

    def run():
        # Without the hypothesis plugin a run starts in half the time; a
        # named test that uses hypothesis imports it itself.
        return subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "no:hypothesispytest", test_id,
            ],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        )

    baseline = run()
    assert baseline.returncode == 0, baseline.stdout + baseline.stderr
    try:
        _write(path, original.replace(old, new))
        mutated = run()
    finally:
        _write(path, original)
    # 1: the test failed; 2 or 4: its module or conftest no longer imports.
    assert mutated.returncode in (1, 2, 4), mutated.stdout + mutated.stderr


def test_every_rule_is_claimed_or_has_a_written_reason():
    registered = {rule.rule_id for rule in all_rules()}
    claimed = {mutation.rule for mutation in MUTATIONS}
    assert claimed <= registered, sorted(claimed - registered)
    assert set(UNSEEDED) <= registered, sorted(set(UNSEEDED) - registered)
    assert not set(UNSEEDED) & claimed, "claimed rules need no excuse"
    assert all(reason.strip() for reason in UNSEEDED.values())
    unaccounted = registered - claimed - set(UNSEEDED)
    assert not unaccounted, (
        "rules that catch no seeded bug and carry no written reason: %s"
        % sorted(unaccounted)
    )
