"""Figure 11 — reversing OS files to previous versions.

Paper result: after replaying 1,000 Linux-kernel commits, reverting each
of ten source files to one minute earlier takes tens to hundreds of
milliseconds, dropping markedly from 1 to 2 to 4 recovery threads
(channel parallelism).

Reproduction claims: every revert restores byte-exact content; per-file
latency is millisecond-scale; every file's revert gets faster from 1 to
2 to 4 threads.
"""

import pytest

from repro.bench.revert_experiments import run_fig11
from repro.bench.tables import format_table

from benchmarks.conftest import emit, run_once

COMMITS = 1000  # the paper's commit count


@pytest.mark.benchmark(group="fig11")
def test_fig11_file_revert(benchmark):
    rows = run_once(benchmark, lambda: run_fig11(commits=COMMITS))
    table_rows = [
        (
            r.name,
            r.per_thread_ms[1],
            r.per_thread_ms[2],
            r.per_thread_ms[4],
            "yes" if r.verified else "NO",
        )
        for r in rows
    ]
    emit(
        format_table(
            ("file", "1 thread (ms)", "2 threads (ms)", "4 threads (ms)", "verified"),
            table_rows,
            title="Figure 11: reverting OS files to one minute earlier",
        ),
        "fig11_file_revert",
    )
    assert all(r.verified for r in rows)
    for r in rows:
        # Every file, not just the mean: more threads, more channels.
        ms = r.per_thread_ms
        assert ms[1] > ms[2] > ms[4], "%s: %r" % (r.name, ms)
    mean_1 = sum(r.per_thread_ms[1] for r in rows) / len(rows)
    mean_4 = sum(r.per_thread_ms[4] for r in rows) / len(rows)
    assert mean_4 < mean_1  # parallel recovery is faster
    assert mean_1 < 1000.0  # millisecond scale, like the paper
    benchmark.extra_info["speedup_4_threads"] = mean_1 / mean_4
