"""Table 3 — execution time of storage-state queries.

Paper result: TimeQuery takes minutes (a full-device scan: ~710-764 s on
a 1 TB device), while AddrQueryAll and RollBack take milliseconds
(0.3-7.6 ms).  Reproduction claim (shape): TimeQuery is orders of
magnitude slower than the per-LPA operations, which stay in the
millisecond range; RollBack costs slightly more than AddrQueryAll (it
adds a write).  TimeQuery is priced in page reads alone (no
decompression, each delta page once), so the test also holds it to the
floor that makes it a full scan: one read per scanned LPA, spread over
every flash lane.
"""

import pytest

from repro.bench.config import bench_geometry
from repro.bench.query_experiments import run_table3
from repro.bench.tables import format_table
from repro.common.units import SECOND_US
from repro.flash.timing import FlashTiming

from benchmarks.conftest import emit, run_once


@pytest.mark.benchmark(group="table3")
def test_table3_query_latency(benchmark):
    rows = run_once(benchmark, run_table3)
    table_rows = [
        (r.volume, r.time_query_s, r.addr_query_all_ms, r.rollback_ms) for r in rows
    ]
    emit(
        format_table(
            ("volume", "TimeQuery (s)", "AddrQueryAll (ms)", "RollBack (ms)"),
            table_rows,
            title="Table 3: storage-state query execution time",
        ),
        "table3_query_latency",
    )
    geometry = bench_geometry()
    lanes = geometry.channels * geometry.chips_per_channel
    read_floor_us = FlashTiming().read_us / lanes
    for r in rows:
        # Full scan vs a handful of page reads: >= 100x apart.
        assert r.time_query_s * 1000.0 > 100 * r.addr_query_all_ms
        # Still a full scan of reads: every LPA with history costs at
        # least its head page, and no lane serves two reads at once.
        assert r.scanned_lpas > 0
        assert r.time_query_s * SECOND_US >= r.scanned_lpas * read_floor_us
        # Per-LPA operations are millisecond-scale (AddrQueryAll walks
        # the full chain; RollBack stops at the target time, so it can
        # come out cheaper despite its extra write).
        assert 0 < r.addr_query_all_ms < 50.0
        assert 0 < r.rollback_ms < 50.0
