"""Rounds, timers and metric assembly for the almanac ledger.

One process measures one workload: the driver (and ``run``, which
spawns one fresh interpreter per workload so ``peak_rss_mib`` is per
workload and never more than one core is loaded) calls

    run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats untraced rounds, each on a freshly built device,
until ``S`` seconds have passed (never fewer than ``MIN_ROUNDS``), and
reports the end-to-end metrics: host-time ones as the median over
rounds, simulated ones once — they must be identical in every round,
and ``sim_digest`` proves it.  ``--trace 1`` runs one untraced round for
the deterministic per-layer counters and one traced round for the
spans, and reports the per-layer metrics.  Host times are in calibrated
seconds; see :func:`yardstick_ns`.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext

from repro.common.errors import ReproError
from repro.common.units import DAY_US
from repro.timessd.ssd import TimeSSD
from repro.timessd.verify import DeviceAuditor

from benchmarks.perf import catalog
from benchmarks.perf.spans import LAYERS, SPAN_GROUPS, Tracer, now_ns
from benchmarks.perf.workloads import WORKLOADS

SCHEMA = "almanac-ledger/1"
MIN_ROUNDS = 3
NS_PER_S = 1_000_000_000

#: Tail percentiles as exact fractions, highest first.
_TAILS = (("p99.99", 9999, 10000), ("p99.9", 999, 1000), ("p99", 99, 100), ("p90", 9, 10))
#: A tail percentile needs this many samples beyond it to be reported.
_TAIL_SAMPLES = 10

#: Iterations of the host-speed yardstick, and the time they take on the
#: reference box (the 2-core sandbox the sizes were chosen on, on a calm
#: minute).  See :func:`yardstick_ns`.
YARDSTICK_LOOPS = 500_000
YARDSTICK_NOMINAL_NS = 105_000_000


def yardstick_ns():
    """Time a fixed pure-Python loop: how fast is this machine *right now*?

    The sandbox this benchmark runs in is shared: for minutes at a time
    it runs everything 20-45% slower, which is more than any bound a
    host-time metric could be given.  The loop does the same kind of
    work as the simulator (dict, list and small-int traffic in the
    interpreter), is never touched by a change to the program, and runs
    before set-up, before and after the measured phase of every round;
    host times are reported in *calibrated seconds* — wall seconds
    scaled by nominal over measured yardstick time, pooled over the run
    — so a slow minute slows both and cancels.  ``loadgen.host_speed``
    is the factor, for anyone who wants the raw wall figure back.
    """
    table = {}
    ring = [0] * 1024
    acc = 0
    started = now_ns()
    for i in range(YARDSTICK_LOOPS):
        slot = (i * 2654435761) & 1023
        ring[slot] = acc & 0xFFFF
        table[slot] = i
        acc += ring[(slot + 7) & 1023] ^ i
    return now_ns() - started


def host_speed(meters):
    """Nominal over measured yardstick time, pooled over ``meters``."""
    samples = [ns for meter in meters for ns in meter.yardstick]
    return YARDSTICK_NOMINAL_NS * len(samples) / sum(samples)


class Meter:
    """What a workload reports through: timers, ops, latencies, failures.

    Host time is the wall clock *inside calls into the program*
    (:meth:`call`); what the generator does between calls is not the
    simulator's speed and is left out.  In a traced round the same
    phase is one root span, the generator's share is that span's self
    time, and :meth:`untimed` marks bookkeeping that belongs to nobody.
    """

    #: Returned by :meth:`call` when the program raised.
    FAILED = object()

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.failures = []
        self.latencies_us = []
        self.late_ops = 0
        self.late_max_us = 0
        self.late_total_us = 0
        self.call_ns = 0
        self.block_ns = 0
        self.setup_ns = 0
        self.tally = Counter()
        self.before = None
        self.after = None
        self.sim_digest = None
        self.yardstick = [yardstick_ns()]
        self._created_ns = now_ns()

    def call(self, fn, *args, **kwargs):
        """Time one call into the program; a raised error is a failed op."""
        started = now_ns()
        try:
            return fn(*args, **kwargs)
        except ReproError as exc:
            self.fail("%s raised %s: %s" % (fn.__name__, type(exc).__name__, exc))
            return self.FAILED
        finally:
            self.call_ns += now_ns() - started

    def op(self, latency_us, late_us=0):
        """One op finished: its simulated latency and how late it started."""
        self.ops += 1
        self.latencies_us.append(latency_us)
        if late_us > 0:
            self.late_ops += 1
            self.late_total_us += late_us
            if late_us > self.late_max_us:
                self.late_max_us = late_us

    def fail(self, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    @contextmanager
    def measuring(self, ssd):
        """The measured phase.  Set-up ends where this begins."""
        self.before = _observe(ssd)
        gc.collect()
        tracer = self.tracer
        self.setup_ns = now_ns() - self._created_ns
        self.yardstick.append(yardstick_ns())
        if tracer is not None:
            tracer.install()
        try:
            started = now_ns()
            with nullcontext() if tracer is None else tracer.root():
                yield
            self.block_ns += now_ns() - started
        finally:
            if tracer is not None:
                tracer.remove()
        self.yardstick.append(yardstick_ns())
        self.after = _observe(ssd)
        self.sim_digest = _digest(ssd, self.after)
        if isinstance(ssd, TimeSSD):
            # After the digest: the audit's chain walks are flash reads.
            for violation in DeviceAuditor(ssd).audit().violations:
                self.fail("fsck: %s" % violation)

    @contextmanager
    def untimed(self):
        """Generator bookkeeping inside the measured phase."""
        started = now_ns()
        with nullcontext() if self.tracer is None else self.tracer.muted():
            yield
        self.block_ns -= now_ns() - started


def _observe(ssd):
    snapshot = ssd.metrics_snapshot()
    seen = {
        "snapshot": snapshot,
        "gc_runs": ssd.gc_runs,
        "background_gc_runs": ssd.background_gc_runs,
        "host_pages_written": ssd.host_pages_written,
        "now_us": ssd.clock.now_us,
        "write_amp": ssd.write_amplification,
        "retention_days": 0.0,
    }
    if isinstance(ssd, TimeSSD):
        seen["retention_days"] = (
            min(ssd.retention_window_us(), ssd.clock.now_us) / DAY_US
        )
    return seen


def _digest(ssd, seen):
    mapping = ssd.mapping
    payload = {
        "metrics": seen["snapshot"],
        "l2p": [[lpa, mapping.lookup(lpa)] for lpa in mapping.mapped_lpas()],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- One round -------------------------------------------------------------------


def run_round(workload, seed, tracer=None, size=None):
    """Build a fresh device, run ``workload`` once; returns the Meter."""
    fn = WORKLOADS[workload][0]
    meter = Meter(tracer)
    fn(seed, meter, *(() if size is None else (size,)))
    if meter.after is None:
        raise RuntimeError("workload %s never measured anything" % workload)
    if meter.ops < 1:
        raise RuntimeError("workload %s attempted no op" % workload)
    return meter


def _rank(sorted_values, numerator, denominator):
    """Nearest-rank percentile ``numerator/denominator`` of a sorted list."""
    count = len(sorted_values)
    rank = max(1, -(-numerator * count // denominator))
    return sorted_values[rank - 1], count - rank


def sim_end_to_end(meter):
    """The simulated end-to-end metrics of one round (exact, per seed)."""
    latencies = sorted(meter.latencies_us)
    tail_label, tail_value, tail_beyond = None, None, 0
    for label, numerator, denominator in _TAILS:
        value, beyond = _rank(latencies, numerator, denominator)
        tail_label, tail_value, tail_beyond = label, value, beyond
        if beyond >= _TAIL_SAMPLES:
            break
    sim_us = meter.after["now_us"] - meter.before["now_us"]
    return {
        # Service time: from when the op was issued, not when it was due.
        "sim_service_mean_us": (sum(latencies) - meter.late_total_us)
        / len(latencies),
        "sim_resp_mean_us": sum(latencies) / len(latencies),
        "sim_resp_p50_us": _rank(latencies, 1, 2)[0],
        "sim_resp_tail_us": tail_value,
        "sim_ops_per_s": meter.ops * 1_000_000 / sim_us if sim_us else 0.0,
        "sim_write_amp": meter.after["write_amp"],
        "sim_retention_days": meter.after["retention_days"],
        "failed_ops_share": min(1.0, meter.failed / meter.ops),
    }, "%s of %d samples, %d beyond" % (tail_label, len(latencies), tail_beyond)


def sim_counters(meter):
    """Deterministic per-layer counts over the measured phase."""
    before, after = meter.before, meter.after
    counters_0, counters_1 = before["snapshot"]["counters"], after["snapshot"]["counters"]
    gauges_0, gauges_1 = before["snapshot"]["gauges"], after["snapshot"]["gauges"]

    def counted(name):
        return counters_1.get(name, 0) - counters_0.get(name, 0)

    def gauged(name):
        return gauges_1.get(name, 0) - gauges_0.get(name, 0)

    chain_0 = before["snapshot"]["histograms"].get("timessd.chain.length", {})
    chain_1 = after["snapshot"]["histograms"].get("timessd.chain.length", {})
    walks = chain_1.get("count", 0) - chain_0.get("count", 0)
    chain_total = chain_1.get("total_us", 0) - chain_0.get("total_us", 0)
    vendor = meter.tally["vendor_commands"]
    out = {
        "flash.sim_reads": counted("flash.reads"),
        "flash.sim_programs": counted("flash.programs"),
        "flash.sim_erases": counted("flash.erases"),
        "flash.sim_channel_busy_us": gauged("flash.busy_us_total"),
        "flash.sim_chip_busy_us": gauged("flash.chip_busy_us_total"),
        "flash.sim_scan_pages": counted("flash.scan.pages"),
        "flash.sim_qdepth_max": gauges_1.get("flash.qdepth_max", 0),
        "ftl.sim_gc_runs": after["gc_runs"] - before["gc_runs"],
        "ftl.sim_gc_bg_runs": after["background_gc_runs"]
        - before["background_gc_runs"],
        "ftl.sim_gc_pages_migrated": counted("gc.pages_migrated"),
        "ftl.sim_free_blocks_end": gauges_1.get("ftl.free_blocks", 0),
        "ftl.sim_checkpoints": counted("recovery.checkpoint.written"),
        "timessd.sim_compressions": counted("timessd.delta.compressions"),
        "timessd.sim_delta_pages_flushed": counted("timessd.delta.flushed_pages"),
        "timessd.sim_expired_pages": counted("timessd.expire.pages"),
        "timessd.sim_retention_shrinks": counted("timessd.retention.shrinks"),
        "timessd.sim_bloom_segments_end": gauges_1.get(
            "timessd.bloom.live_segments", 0
        ),
        "timessd.sim_retained_pages_end": gauges_1.get("timessd.retained_pages", 0),
        "timessd.sim_chain_len_mean": chain_total / walks if walks else 0.0,
        "nvme.sim_inflight_max": gauges_1.get("nvme.engine.inflight_max", 0),
        "sched.sim_events": gauges_1.get("nvme.engine.events", 0),
        "sched.sim_tasks": gauges_1.get("nvme.engine.tasks", 0),
        "timekits.sim_flash_reads_per_call": counted("flash.reads") / vendor
        if vendor
        else 0.0,
        "timekits.sim_versions_returned": meter.tally["versions_returned"],
        "timekits.sim_pages_restored": (
            after["host_pages_written"] - before["host_pages_written"]
        )
        if vendor
        else 0,
    }
    erases = out["flash.sim_erases"]
    out["sched.events_per_cmd"] = out["sched.sim_events"] / meter.ops
    out["ftl.gc_migrated_per_erase"] = (
        out["ftl.sim_gc_pages_migrated"] / erases if erases else 0.0
    )
    return out


def span_metrics(traced, untraced):
    """Per-layer host-time figures from the traced round's spans."""
    report = traced.tracer.report()
    total_ns = report.total_ns or 1
    # Each round is calibrated by its own three yardstick samples: the
    # traced round runs several times longer than the untraced one.
    speed = host_speed([traced])
    out = {"loadgen.host_speed": host_speed([untraced, traced])}
    for layer in LAYERS:
        self_ns = report.layer_self_ns(layer) * speed
        out["%s.host_self_s" % layer] = self_ns / NS_PER_S
        out["%s.host_share" % layer] = report.layer_self_ns(layer) / total_ns
        out["%s.calls" % layer] = (
            traced.ops if layer == "loadgen" else report.layer_calls(layer)
        )
    for group in SPAN_GROUPS:
        calls, self_ns = report.groups[group]
        out["%s.calls" % group] = calls
        out["%s.host_self_s" % group] = self_ns * speed / NS_PER_S
    out["trace.overhead_ratio"] = (traced.call_ns * speed) / max(
        1, untraced.call_ns * host_speed([untraced])
    )
    out["loadgen.late_share"] = untraced.late_ops / untraced.ops
    out["loadgen.late_max_us"] = untraced.late_max_us
    compressions = sim_counters(traced)["timessd.sim_compressions"]
    out["flash.geometry_calls_per_op"] = report.groups["flash.geometry"][0] / traced.ops
    out["ftl.map_calls_per_op"] = report.groups["ftl.map"][0] / traced.ops
    out["timessd.peeks_per_compression"] = (
        report.peeks_in_compress / compressions if compressions else 0.0
    )
    return out, report


# --- One workload, as the driver runs it --------------------------------------------


def measure_end_to_end(workload, seed, seconds=None, rounds=None, size=None):
    """Untraced rounds; returns the result dict of a ``--trace 0`` run.

    With ``rounds`` exactly that many; otherwise rounds repeat until
    ``seconds`` have passed, and at least ``MIN_ROUNDS`` of them.
    """
    meters = []
    started = now_ns()
    while True:
        meters.append(run_round(workload, seed, size=size))
        gc.collect()
        if rounds is not None:
            if len(meters) >= rounds:
                break
        elif len(meters) >= MIN_ROUNDS and (
            now_ns() - started >= seconds * NS_PER_S
        ):
            break
    first = meters[0]
    sim, tail_note = sim_end_to_end(first)
    problems = []
    for meter in meters[1:]:
        if meter.sim_digest != first.sim_digest or sim_end_to_end(meter)[0] != sim:
            problems.append("simulated results differ between rounds of one seed")
            break
    speed = host_speed(meters)
    host = {
        "host_ops_per_s": [m.ops * NS_PER_S / (m.call_ns * speed) for m in meters],
        "setup_s": [m.setup_ns * speed / NS_PER_S for m in meters],
        "peak_rss_mib": [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ],
    }
    values = {name: statistics.median(samples) for name, samples in host.items()}
    values.update(sim)
    return {
        "values": values,
        "rounds": host,
        "notes": {
            "sim_resp_tail_us": tail_note,
            "rounds": str(len(meters)),
            "host_speed": repr(speed),
        },
        "sim_digest": first.sim_digest,
        "attempted": sum(m.ops for m in meters),
        "failed": sum(min(m.failed, m.ops) for m in meters),
        "problems": problems + [why for m in meters for why in m.failures][:8],
    }


def measure_per_layer(workload, seed, spans_out=None, size=None):
    """One untraced and one traced round; the ``--trace 1`` result dict."""
    untraced = run_round(workload, seed, size=size)
    gc.collect()
    traced = run_round(workload, seed, tracer=Tracer(), size=size)
    values, report = span_metrics(traced, untraced)
    values.update(sim_counters(untraced))
    sim, tail_note = sim_end_to_end(untraced)
    for name, _unit, _better, _bound in catalog.LEDGER_END_TO_END:
        values[name] = sim[name]
    problems = []
    if traced.sim_digest != untraced.sim_digest:
        problems.append("tracing changed the simulated results")
    if spans_out:
        traced.tracer.write_spans(spans_out)
    notes = {"sim_resp_tail_us": tail_note, "trace.spans": str(report.spans)}
    if traced.tracer.missing:
        notes["trace.missing"] = ", ".join(traced.tracer.missing)
    return {
        "values": values,
        "rounds": {},
        "notes": notes,
        "sim_digest": untraced.sim_digest,
        "attempted": untraced.ops + traced.ops,
        "failed": min(untraced.failed, untraced.ops) + min(traced.failed, traced.ops),
        "problems": problems + (untraced.failures + traced.failures)[:8],
    }


def _units(trace):
    if trace:
        return {name: unit for name, unit, _better in catalog.per_layer()}
    return {name: unit for name, unit, _better, _bound in catalog.END_TO_END}


def run_one(args):
    """Driver mode: measure one workload here, print, exit."""
    if args.trace:
        result = measure_per_layer(args.workload, args.seed, args.spans_out)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds, args.rounds)
    units = _units(args.trace)
    correct = result["failed"] == 0 and not result["problems"]
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for name, unit in units.items():
        note = result["notes"].get(name)
        print(
            "%-36s %r %s%s"
            % (name, result["values"][name], unit, "  (%s)" % note if note else "")
        )
    for name, note in result["notes"].items():
        if name not in units:
            print("%-36s %s" % (name, note))
    print("sim_digest %s" % result["sim_digest"])
    for why in result["problems"]:
        print("FAILED CHECK: %s" % why)
    if args.detail:
        print("detail: %s" % json.dumps(result, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["values"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


# --- The ledger: every workload, one fresh interpreter each ---------------------------


def _child(workload, seed, trace, rounds):
    """Run one workload in its own interpreter; returns its detail dict."""
    command = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--rounds", str(rounds),
        "--detail",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        elif not line.startswith("{"):
            print("  " + line)
    if detail is None:
        raise RuntimeError(
            "workload %s (trace %d) exited %d without a result"
            % (workload, trace, done.returncode)
        )
    return detail


def run_ledger(args):
    """``run``: all (or the named) workloads, strictly one at a time."""
    names = args.workload or list(WORKLOADS)
    ledger = {"schema": SCHEMA, "seed": args.seed, "rounds": args.rounds, "workloads": {}}
    failed = False
    for name in names:
        print("== %s: %s" % (name, WORKLOADS[name][1]))
        entry = {"end_to_end": _child(name, args.seed, 0, args.rounds)}
        if not args.no_trace:
            entry["per_layer"] = _child(name, args.seed, 1, args.rounds)
        for part in entry.values():
            failed = failed or part["failed"] > 0 or bool(part["problems"])
        ledger["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(ledger, out, indent=1, sort_keys=True)
            out.write("\n")
        print("wrote %s" % args.out)
    return 1 if failed else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.perf.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["run"]:
        parser = argparse.ArgumentParser(prog="benchmarks.perf run")
        parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
        parser.add_argument("--no-trace", action="store_true")
        parser.add_argument("--rounds", type=int, default=MIN_ROUNDS)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--out", help="write the ledger JSON that compare reads")
        return run_ledger(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="exactly this many rounds")
    parser.add_argument("--spans-out", help="with --trace 1: write every span here")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    return run_one(parser.parse_args(argv))
