"""Machine-readable metrics snapshots: the committed bench snapshot and the CLI demo.

The bench smoke workload replays the same seeded churn on both devices
and serializes their :meth:`~repro.ftl.ssd.BaseSSD.metrics_snapshot`
output.  Every leaf is derived from sim time and an explicit seed, so
two runs of the same seed produce an identical file:
:func:`check_bench_snapshot` compares the whole of
:data:`BENCH_SNAPSHOT` against a fresh run, and ``git log -p`` on it is
the behaviour trajectory.  Nothing here reads a wall clock; host speed
is measured by the ledger under ``benchmarks/perf``.
"""

import json

from repro.bench.config import make_bench_regular, make_bench_timessd
from repro.common.units import SECOND_US
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.ssd import RegularSSD, SSDConfig
from repro.timessd.config import TimeSSDConfig
from repro.timessd.ssd import TimeSSD

#: Schema tag: bump only when the JSON layout changes incompatibly.
SCHEMA = "almanac-metrics/1"

#: The one committed bench snapshot, relative to the repository root.
BENCH_SNAPSHOT = "benchmarks/results/bench_smoke.json"


def churn(ssd, writes, seed, working_fraction=0.5, gap_us=1500):
    """Seeded update/trim/read churn over a bounded working set."""
    import random

    rng = random.Random(seed)
    working = max(1, int(ssd.logical_pages * working_fraction))
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(gap_us)
    for _ in range(writes):
        lpa = rng.randrange(working)
        roll = rng.random()
        if roll < 0.70:
            ssd.write(lpa)
        elif roll < 0.85:
            ssd.read(lpa)
        else:
            ssd.trim(lpa)
        ssd.clock.advance(rng.choice((gap_us, 3 * gap_us, 40_000)))
    return ssd


def demo_device(kind="timessd", seed=7, tracing=False):
    """A small fully-deterministic device for ``repro metrics --demo``."""
    geometry = FlashGeometry(
        channels=4, blocks_per_plane=16, pages_per_block=16, page_size=512
    )
    if kind == "regular":
        return RegularSSD(
            SSDConfig(geometry=geometry, timing=FlashTiming(), tracing=tracing)
        )
    if kind == "timessd":
        return TimeSSD(
            TimeSSDConfig(
                geometry=geometry,
                timing=FlashTiming(),
                retention_floor_us=2 * SECOND_US,
                bloom_capacity=128,
                bloom_segment_max_age_us=SECOND_US // 2,
                gc_overhead_period_writes=64,
                tracing=tracing,
                seed=seed,
            )
        )
    raise ValueError("unknown device kind %r" % (kind,))


def demo_snapshot(kind="timessd", seed=7, writes=600, tracing=False):
    """Run the demo churn; returns the schema-stable result dict."""
    ssd = demo_device(kind, seed=seed, tracing=tracing)
    churn(ssd, writes, seed)
    result = {
        "schema": SCHEMA,
        "workload": {"name": "demo-churn", "writes": writes, "seed": seed},
        "device": kind,
        "metrics": ssd.metrics_snapshot(),
    }
    if tracing:
        result["trace"] = {
            "dropped": ssd.obs.trace.dropped,
            "events": ssd.obs.trace.drain(),
        }
    return result


def bench_smoke_snapshots(seed=1, writes=1500):
    """The bench smoke workload on both devices; returns the result dict."""
    devices = {}
    for kind, factory in (
        ("regular", make_bench_regular),
        ("timessd", make_bench_timessd),
    ):
        ssd = factory()
        # churn() prefills its working set before updating it; 35% of
        # logical capacity keeps the TimeSSD run clear of the retention
        # alarm (the floor is 3 days and the smoke run spans seconds, so
        # every invalidated version stays retained until compressed).
        churn(ssd, writes, seed, working_fraction=0.35)
        devices[kind] = {
            "metrics": ssd.metrics_snapshot(),
            "summary": {
                "host_pages_written": ssd.host_pages_written,
                "host_pages_read": ssd.host_pages_read,
                "write_amplification": round(ssd.write_amplification, 6),
                "gc_runs": ssd.gc_runs,
                "background_gc_runs": ssd.background_gc_runs,
                "mean_write_us": round(ssd.write_latency.mean_us, 6),
                "p99_write_us": ssd.write_latency.percentile(99),
            },
        }
    return {
        "schema": SCHEMA,
        "workload": {"name": "bench-smoke", "writes": writes, "seed": seed},
        "devices": devices,
        "reliability": reliability_smoke_snapshot(seed=seed),
        "queue_scaling": queue_scaling_snapshot(seed=seed),
    }


def queue_scaling_snapshot(seed=1, depths=(1, 4, 8), reads=200):
    """Random-read IOPS per queue depth on the async engine.

    The committed trajectory of the event-driven core: per-depth IOPS
    are pure simulated-time figures (deterministic for a seed), so any
    change to the scheduler, the engine, or flash timing shows up as a
    payload diff here.
    """
    from repro.bench.ablations import ablate_queue_depth

    points = ablate_queue_depth(depths=depths, reads=reads, seed=seed)
    iops = {p.label: round(p.mean_response_us, 3) for p in points}
    return {
        "reads": reads,
        "iops": iops,
        "qd8_over_qd1": round(iops["QD=8"] / iops["QD=1"], 3),
    }


def make_bench_aging_timessd(seed=1):
    """Bench TimeSSD with the aging model and patrol scrub enabled."""
    from repro.bench.config import make_bench_timessd as _factory
    from repro.flash.reliability import FlashReliability

    return _factory(
        reliability=FlashReliability(
            raw_bit_error_rate=2e-5,
            wear_ber_multiplier=0.002,
            retention_ber_per_hour=1.0,
            read_disturb_ber_per_read=5e-4,
            ecc_correctable_bits=24,
            seed=seed,
        ),
        patrol_scrub=True,
    )


def reliability_smoke_snapshot(seed=1, writes=360):
    """A day of simulated aging under scrub + retry (docs/RELIABILITY.md).

    Read-heavy epochs separated by 10-hour retention jumps: pages drift
    toward the ECC budget, the ladder rescues the marginal reads, and
    the patrol scrubber refreshes the at-risk ones in the idle windows.
    Fully deterministic per seed, like the rest of the snapshot.
    """
    import random

    from repro.common.units import HOUR_US

    ssd = make_bench_aging_timessd(seed=seed)
    rng = random.Random(seed)
    working = 256
    for lpa in range(working):
        ssd.write(lpa)
        ssd.clock.advance(1500)
    for _epoch in range(4):
        ssd.clock.advance(10 * HOUR_US)
        for _ in range(writes // 4):
            lpa = rng.randrange(working)
            if rng.random() < 0.75:
                ssd.read(lpa)
            else:
                ssd.write(lpa)
            ssd.clock.advance(15_000)
    snapshot = ssd.metrics_snapshot()
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    return {
        "workload": {
            "name": "aging-day",
            "seed": seed,
            "writes": writes,
            "epochs": 4,
            "epoch_hours": 10,
        },
        "retry": {
            "reads": counters.get("reliability.retry_reads", 0),
            "exhausted": counters.get("reliability.retry_exhausted", 0),
            "depth": histograms.get("reliability.retry_depth"),
        },
        "ecc": {
            "corrected_reads": counters.get("flash.ecc.corrected_reads", 0),
            "corrected_bits": counters.get("flash.ecc.corrected_bits", 0),
            "uncorrectable_reads": counters.get(
                "flash.ecc.uncorrectable_reads", 0
            ),
        },
        "scrub": {
            "runs": counters.get("scrub.runs", 0),
            "patrol_reads": counters.get("scrub.patrol_reads", 0),
            "refreshed_valid": counters.get("scrub.refreshed_valid", 0),
            "refreshed_retained": counters.get("scrub.refreshed_retained", 0),
            "skipped_expired": counters.get("scrub.skipped_expired", 0),
            "at_risk_queued": counters.get("scrub.at_risk_queued", 0),
            "blocks_retired": counters.get("scrub.blocks_retired", 0),
        },
    }


def to_canonical_json(result, indent=2):
    """Stable rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(result, sort_keys=True, indent=indent) + "\n"


def write_bench_json(path=BENCH_SNAPSHOT, seed=1, writes=1500):
    """Run the bench smoke workload and write it to ``path``; returns the path."""
    with open(path, "w") as fh:
        fh.write(to_canonical_json(bench_smoke_snapshots(seed=seed, writes=writes)))
    return path


def check_bench_snapshot(path=BENCH_SNAPSHOT, seed=1, writes=1500):
    """Regenerate the snapshot and diff it against the committed file.

    Returns a list of problem strings; empty means the committed file is
    current.  Two checks: the schema tag matches and the whole file is
    identical to a fresh run (any simulator behaviour change must
    re-commit the snapshot).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            committed = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["cannot read committed snapshot %s: %s" % (path, exc)]
    if committed.get("schema") != SCHEMA:
        return [
            "schema mismatch: committed %r, analyzer expects %r"
            % (committed.get("schema"), SCHEMA)
        ]
    fresh = bench_smoke_snapshots(seed=seed, writes=writes)
    # Round-trip the fresh result through JSON so tuples compare equal
    # to the lists json.load hands back for the committed file.
    if committed != json.loads(to_canonical_json(fresh)):
        return [
            "%s drifted: simulator behaviour changed; regenerate with "
            "`repro metrics --bench`" % path
        ]
    return []
