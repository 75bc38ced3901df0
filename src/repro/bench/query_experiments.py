"""Storage-state query latency — the paper's Table 3.

After warming each volume's device with its trace, run the three
representative TimeKits calls the paper times:

* ``TimeQuery`` (state since one day ago) — a full device scan, seconds;
* ``AddrQueryAll`` on one random LPA — a few page reads, milliseconds;
* ``RollBack`` of that LPA to one day ago — reads plus one write.

``time_query_s`` is page reads and nothing else, as in the paper's
Table 3: every LPA with history costs its data-page chain hops, every
flushed delta page is read once per command however many LPAs have a
record in it, and no delta is decompressed because the answer carries
timestamps, which sit in the delta-page header.  ``scanned_lpas`` is how
many chains the scan walked, so a reader (and
``benchmarks/test_table3_queries.py``) can hold the time against the
floor of one read per LPA spread over every flash lane.
"""

import random
from dataclasses import dataclass

from repro.common.units import DAY_US, MS_US, SECOND_US
from repro.bench.config import make_bench_timessd, prefill
from repro.bench.trace_experiments import FIU_NAMES, MSR_NAMES
from repro.timekits.api import TimeKits
from repro.workloads.fiu import fiu_trace
from repro.workloads.msr import msr_trace
from repro.workloads.trace import TraceReplayer


@dataclass
class QueryTimings:
    volume: str
    time_query_s: float
    addr_query_all_ms: float
    rollback_ms: float
    scanned_lpas: int


def _warm_device(source, volume, usage=0.5, days=7, seed=1):
    ssd = make_bench_timessd()
    working = int(ssd.logical_pages * usage)
    prefill(ssd, working)
    fn = msr_trace if source == "msr" else fiu_trace
    trace = fn(volume, ssd.logical_pages, days=days, seed=seed, working_pages=working)
    TraceReplayer(ssd).replay(trace)
    return ssd, working


def run_volume_queries(source, volume, usage=0.5, days=7, seed=1, threads=8):
    """Time the three Table-3 operations on one warmed volume."""
    ssd, working = _warm_device(source, volume, usage, days, seed)
    kits = TimeKits(ssd)
    rng = random.Random(seed)
    day_ago = max(0, ssd.clock.now_us - DAY_US)

    scanned = len(ssd.lpas_with_history())
    tq = kits.time_query(day_ago, threads=threads)

    # Pick an LPA that actually has history (hot region).
    lpa = rng.randrange(max(1, working // 5))
    aq = kits.addr_query_all(lpa, cnt=1)
    rb = kits.rollback(lpa, cnt=1, t=day_ago)

    return QueryTimings(
        volume=volume,
        time_query_s=tq.elapsed_us / SECOND_US,
        addr_query_all_ms=aq.elapsed_us / MS_US,
        rollback_ms=rb.elapsed_us / MS_US,
        scanned_lpas=scanned,
    )


def run_table3(usage=0.5, days=7, seed=1):
    """All 12 volumes; returns :class:`QueryTimings` rows in paper order."""
    rows = []
    for volume in MSR_NAMES:
        rows.append(run_volume_queries("msr", volume, usage, days, seed))
    for volume in FIU_NAMES:
        rows.append(run_volume_queries("fiu", volume, usage, days, seed))
    return rows
