"""Bit-for-bit determinism: the whole simulation is seeded.

Reproducibility is a deliverable — every experiment in EXPERIMENTS.md
must come out identical on re-run.  These tests run the same scenario
twice from scratch and require identical results.
"""

import pytest

from repro.common.units import SECOND_US
from repro.workloads.msr import msr_trace
from repro.workloads.trace import TraceReplayer

from tests.conftest import make_regular_ssd, make_timessd, small_geometry


def _replay_fingerprint():
    ssd = make_timessd(
        geometry=small_geometry(blocks_per_plane=48),
        retention_floor_us=2 * SECOND_US,
        bloom_segment_max_age_us=SECOND_US,
    )
    trace = msr_trace(
        "src",
        ssd.logical_pages,
        days=1,
        seed=6,
        intensity_scale=20,
        working_pages=ssd.logical_pages // 2,
    )
    stats = TraceReplayer(ssd).replay(trace)
    return (
        stats.requests,
        stats.pages_written,
        round(stats.response.mean_us, 6),
        round(ssd.write_amplification, 9),
        ssd.retention_window_us(),
        ssd.gc_runs,
        ssd.background_gc_runs,
        ssd.retained_pages,
        ssd.deltas.records_created,
        ssd.device.page_programs.value,
        ssd.device.block_erases.value,
        ssd.clock.now_us,
    )


def test_timessd_replay_is_deterministic():
    first = _replay_fingerprint()
    assert first == _replay_fingerprint()
    # The replay stays big enough to cover both GC paths and the delta store.
    gc_runs, background_gc_runs, _retained, deltas_created = first[5:9]
    assert gc_runs and background_gc_runs and deltas_created


def test_regular_ssd_churn_is_deterministic():
    import random

    def run():
        ssd = make_regular_ssd()
        rng = random.Random(77)
        for lpa in range(ssd.logical_pages // 2):
            ssd.write(lpa)
        for _ in range(3000):
            ssd.write(rng.randrange(ssd.logical_pages // 2))
            ssd.clock.advance(300)
        return (
            ssd.device.page_programs.value,
            ssd.device.block_erases.value,
            tuple(ssd.device.block_erase_counts()),
            round(ssd.write_latency.mean_us, 9),
        )

    assert run() == run()


def test_bench_runner_is_deterministic():
    from repro.bench.trace_experiments import _CACHE, run_volume

    first = run_volume("fiu", "online", "timessd", 0.4, days=2, seed=55)
    _CACHE.clear()  # force a genuine re-run
    second = run_volume("fiu", "online", "timessd", 0.4, days=2, seed=55)
    assert first == second
