"""Tests of the benchmark itself.  Run explicitly, not in tier-1:

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_bench.py

Every workload runs at a small size passed as an argument, so the whole
file takes well under a minute.
"""

import json
import os

import pytest

from repro.ftl.ssd import BaseSSD
from repro.timekits.api import QueryResult, TimeKits
from repro.timessd import recovery as timessd_recovery

from benchmarks.perf import catalog, compare, runner, spans, workloads

SMALL = {
    "trace-timessd": workloads.TraceSize(requests=1_500),
    "trace-regular": workloads.TraceSize(requests=1_500),
    "qd-read": workloads.QdReadSize(commands=3_000, warmup_writes=6_500),
    "timekits": workloads.TimeKitsSize(
        blocks_per_plane=16,
        requests=600,
        addr_query_all=60,
        addr_query=30,
        addr_query_range=10,
        rollback=10,
    ),
    "crash-loop": workloads.CrashLoopSize(requests=600, cycles=3, ios_per_cycle=32),
}


def small_round(name, seed=1, tracer=None):
    return runner.run_round(name, seed, tracer=tracer, size=SMALL[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_is_correct_and_deterministic(name):
    first = small_round(name)
    again = small_round(name)
    other = small_round(name, seed=2)
    assert first.failed == 0, first.failures
    assert first.ops == again.ops and first.ops > 0
    assert first.sim_digest == again.sim_digest
    assert runner.sim_end_to_end(first) == runner.sim_end_to_end(again)
    assert runner.sim_counters(first) == runner.sim_counters(again)
    assert other.sim_digest != first.sim_digest


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_span_self_times_sum_to_the_traced_wall(name):
    original_write = BaseSSD.write
    traced = small_round(name, tracer=spans.Tracer())
    report = traced.tracer.report()
    assert report.total_ns == pytest.approx(traced.block_ns, rel=0.02)
    loadgen_ns = report.layer_self_ns("loadgen")
    assert loadgen_ns < 0.10 * report.total_ns
    # Wrappers come off in a finally: the next round runs unwrapped code
    # and simulates exactly what the traced one did.
    assert BaseSSD.write is original_write
    untraced = small_round(name)
    assert untraced.sim_digest == traced.sim_digest
    assert untraced.tracer is None


def test_wrappers_come_off_when_the_measured_phase_raises():
    original = vars(BaseSSD)["write_range"]

    def broken(seed, meter, size):
        ssd = workloads.make_bench_regular()
        with meter.measuring(ssd):
            assert vars(BaseSSD)["write_range"] is not original
            raise KeyError("the generator itself failed")

    with pytest.raises(KeyError):
        broken(1, runner.Meter(spans.Tracer()), None)
    assert vars(BaseSSD)["write_range"] is original


def test_layers_a_workload_bypasses_record_nothing():
    def calls(name):
        traced = small_round(name, tracer=spans.Tracer())
        report = traced.tracer.report()
        return {layer: report.layer_calls(layer) for layer in spans.LAYERS}

    regular = calls("trace-regular")
    assert regular["timessd"] == regular["nvme"] == regular["sched"] == 0
    assert regular["ftl"] > 0 and regular["flash"] > 0
    timessd = calls("trace-timessd")
    assert timessd["timessd"] > 0 and timessd["nvme"] == timessd["sched"] == 0
    queued = calls("qd-read")
    assert queued["nvme"] > 0 and queued["sched"] > 0
    assert calls("timekits")["timekits"] > 0


def test_a_dropped_version_raises_failed_ops_share(monkeypatch):
    real = TimeKits.addr_query_all

    def forgetful(self, addr, cnt=1, threads=1):
        result = real(self, addr, cnt, threads)
        newest_only = {lpa: chain[:1] for lpa, chain in result.value.items()}
        return QueryResult(newest_only, result.elapsed_us, result.pages_touched)

    monkeypatch.setattr(TimeKits, "addr_query_all", forgetful)
    meter = small_round("timekits")
    assert meter.failed > 0
    assert any("dropped" in why for why in meter.failures)
    assert runner.sim_end_to_end(meter)[0]["failed_ops_share"] > 0


def test_a_remapped_lpa_raises_failed_ops_share(monkeypatch):
    real = timessd_recovery.rebuild_from_flash

    def amnesiac(ssd):
        stats = real(ssd)
        for lpa in list(ssd.mapping.mapped_lpas())[:64]:
            ssd.mapping.invalidate(lpa)
        return stats

    monkeypatch.setattr(timessd_recovery, "rebuild_from_flash", amnesiac)
    meter = small_round("crash-loop")
    assert any("remapped" in why for why in meter.failures), meter.failures
    assert runner.sim_end_to_end(meter)[0]["failed_ops_share"] > 0


def test_benchmark_json_names_what_the_runner_emits():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["paths"] == ["benchmarks/perf"]
    assert manifest["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(catalog.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == catalog.per_layer()
    assert len(manifest["per_layer"]) <= 128
    end_to_end = runner.measure_end_to_end(
        "trace-regular", 1, rounds=2, size=SMALL["trace-regular"]
    )
    assert set(m["name"] for m in manifest["end_to_end"]) <= set(end_to_end["values"])
    per_layer = runner.measure_per_layer(
        "trace-regular", 1, size=SMALL["trace-regular"]
    )
    assert set(m["name"] for m in manifest["per_layer"]) == set(per_layer["values"])
    assert not end_to_end["problems"] and not per_layer["problems"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    meter = runner.Meter()
    meter.before = {"now_us": 0}
    meter.after = {"now_us": 1_000_000, "write_amp": 1.0, "retention_days": 0.0}
    for latency in range(1, 2001):
        meter.op(latency)
    sim, note = runner.sim_end_to_end(meter)
    assert note.startswith("p99 of 2000 samples, 20 beyond")
    assert sim["sim_resp_tail_us"] == 1980
    assert sim["sim_resp_p50_us"] == 1000
    assert sim["sim_ops_per_s"] == 2000.0


def _entry(value, rounds):
    return {"values": {"host_ops_per_s": value}, "rounds": {"host_ops_per_s": rounds}}


def test_compare_verdicts():
    steady = _entry(100.0, [99.0, 100.0, 101.0])
    assert compare.verdict("host_ops_per_s", steady, steady)[-1] == "same"
    slower = _entry(70.0, [69.0, 70.0, 71.0])
    assert compare.verdict("host_ops_per_s", steady, slower)[-1] == "worse"
    assert compare.verdict("host_ops_per_s", slower, steady)[-1] == "better"
    noisy = _entry(90.0, [60.0, 90.0, 130.0])
    assert compare.verdict("host_ops_per_s", steady, noisy)[-1] == "unresolved"
