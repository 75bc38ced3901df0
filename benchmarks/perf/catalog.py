"""Names, units, directions and bounds of every metric the ledger emits.

``BENCHMARK.json`` is this catalog in the driver's format; the test
file holds the two together.  Three families, never mixed:

* **host** — how fast the simulator runs on this machine (wall clock,
  noisy): ``host_ops_per_s``, ``setup_s``, ``peak_rss_mib`` and every
  ``*.host_*`` span figure;
* **sim** — what the modelled drive would do (``sim_*``): a pure
  function of the seed, so two commits compare exactly;
* **counts** — calls and ratios from the traced pass.

The end-to-end metrics in ``END_TO_END`` are the ones the driver bounds.
The driver runs every workload on ten seeds and takes the spread between
seeds for noise, so a bounded metric has to be steady *across seeds*,
never zero, and not the same on every seed.  ``LEDGER_END_TO_END`` holds
the end-to-end metrics that are not: latency counted from the due time
on an open-loop bursty trace is dominated by the few longest bursts
(mean and tail move ~25% between seeds), the trace fixes
``sim_ops_per_s``, the median is the same page-program time on every
seed, retention is zero by construction on ``trace-regular`` and
``failed_ops_share`` is zero everywhere.  The ledger still prints and
compares them — at one seed they repeat exactly — and the driver sees
them in the traced pass.
"""

from benchmarks.perf.spans import LAYERS, SPAN_GROUPS

#: ``(name, unit, better, bound)``; ``bound`` is the share of the
#: parent's median by which the metric may get worse.  Unit ``sim_us``
#: is simulated microseconds — a deterministic count, not a host time.
END_TO_END = (
    ("host_ops_per_s", "op/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("sim_service_mean_us", "sim_us", "lower", 0.25),
    ("sim_write_amp", "ratio", "lower", 0.20),
)

#: End-to-end in the ledger, per-layer for the driver.  The bound is the
#: ledger's regression bound for a change that means to move the model
#: (any difference at all shows in ``compare``'s identity check).
LEDGER_END_TO_END = (
    ("sim_resp_mean_us", "sim_us", "lower", 0.01),
    ("sim_resp_p50_us", "sim_us", "lower", 0.01),
    ("sim_resp_tail_us", "sim_us", "lower", 0.01),
    ("sim_ops_per_s", "op/s", "higher", 0.01),
    ("sim_retention_days", "days", "higher", 0.01),
    ("failed_ops_share", "ratio", "lower", 0.0),
)

#: Deterministic deltas over the measured phase of an untraced round.
SIM_COUNTERS = (
    ("flash.sim_reads", "count", "lower"),
    ("flash.sim_programs", "count", "lower"),
    ("flash.sim_erases", "count", "lower"),
    ("flash.sim_channel_busy_us", "sim_us", "lower"),
    ("flash.sim_chip_busy_us", "sim_us", "lower"),
    ("flash.sim_scan_pages", "count", "lower"),
    ("flash.sim_qdepth_max", "count", "higher"),
    ("ftl.sim_gc_runs", "count", "lower"),
    ("ftl.sim_gc_bg_runs", "count", "higher"),
    ("ftl.sim_gc_pages_migrated", "count", "lower"),
    ("ftl.sim_free_blocks_end", "count", "higher"),
    ("ftl.sim_checkpoints", "count", "lower"),
    ("timessd.sim_compressions", "count", "lower"),
    ("timessd.sim_delta_pages_flushed", "count", "lower"),
    ("timessd.sim_expired_pages", "count", "lower"),
    ("timessd.sim_retention_shrinks", "count", "lower"),
    ("timessd.sim_bloom_segments_end", "count", "lower"),
    ("timessd.sim_retained_pages_end", "count", "higher"),
    ("timessd.sim_chain_len_mean", "count", "lower"),
    ("nvme.sim_inflight_max", "count", "higher"),
    ("sched.sim_events", "count", "lower"),
    ("sched.sim_tasks", "count", "lower"),
    ("timekits.sim_flash_reads_per_call", "ratio", "lower"),
    ("timekits.sim_versions_returned", "count", "higher"),
    ("timekits.sim_pages_restored", "count", "lower"),
)

#: Work a layer could avoid, as a ratio with its base.
WASTE_RATIOS = (
    ("flash.geometry_calls_per_op", "ratio", "lower"),
    ("ftl.map_calls_per_op", "ratio", "lower"),
    ("sched.events_per_cmd", "ratio", "lower"),
    ("ftl.gc_migrated_per_erase", "ratio", "lower"),
    ("timessd.peeks_per_compression", "ratio", "lower"),
)

TRACE_FIGURES = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("loadgen.host_speed", "ratio", "higher"),
    ("loadgen.late_share", "ratio", "lower"),
    ("loadgen.late_max_us", "sim_us", "lower"),
)


def per_layer():
    """``(name, unit, better)`` for every per-layer metric, in print order."""
    rows = []
    for layer in LAYERS:
        rows.append(("%s.host_self_s" % layer, "s", "lower"))
        rows.append(("%s.host_share" % layer, "ratio", "lower"))
        rows.append(("%s.calls" % layer, "count", "lower"))
    for group in SPAN_GROUPS:
        rows.append(("%s.calls" % group, "count", "lower"))
        rows.append(("%s.host_self_s" % group, "s", "lower"))
    rows.extend(TRACE_FIGURES)
    rows.extend(SIM_COUNTERS)
    rows.extend(WASTE_RATIOS)
    rows.extend((name, unit, better) for name, unit, better, _ in LEDGER_END_TO_END)
    return rows


_END_TO_END_ROWS = {row[0]: row for row in END_TO_END + LEDGER_END_TO_END}


def bound_of(metric):
    """Regression bound of an end-to-end metric (ledger ones included)."""
    return _END_TO_END_ROWS[metric][3]


def higher_is_better(metric):
    return _END_TO_END_ROWS[metric][2] == "higher"
