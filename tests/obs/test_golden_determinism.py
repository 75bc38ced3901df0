"""Golden determinism: same (seed, workload) => byte-identical snapshots."""

import pytest

from repro.bench import emit
from repro.common.errors import UncorrectableReadError
from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan

from tests.conftest import fill_and_churn, make_regular_ssd, make_timessd


def run_regular(seed):
    ssd = fill_and_churn(make_regular_ssd(), 500, 2000, seed=seed)
    return ssd.obs.metrics.to_json(indent=2)


def run_timessd(seed):
    ssd = fill_and_churn(make_timessd(tracing=True), 500, 2000, seed=seed)
    return (
        ssd.obs.metrics.to_json(indent=2),
        ssd.obs.trace.drain(),
        ssd.obs.trace.dropped,
    )


def run_fault_plan(seed):
    plan = FaultPlan(seed=seed)
    plan.add_program_failure(every=97)
    plan.add_read_error(every=211)
    ssd = fill_and_churn(
        make_regular_ssd(faults=FaultHooks(plan)), 400, 1500, seed=seed
    )
    for lpa in range(0, 400, 7):
        try:
            ssd.read(lpa)
        except UncorrectableReadError:
            pass  # injected; the fault counters still advance deterministically
    return ssd.obs.metrics.to_json(indent=2)


class TestGoldenSnapshots:
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_regular_two_runs_byte_identical(self, seed):
        assert run_regular(seed) == run_regular(seed)

    @pytest.mark.parametrize("seed", [7, 1234])
    def test_timessd_two_runs_byte_identical(self, seed):
        first, second = run_timessd(seed), run_timessd(seed)
        assert first[0] == second[0]  # metrics JSON
        assert first[1] == second[1]  # full event ring
        assert first[2] == second[2]  # dropped count

    def test_fault_plan_run_byte_identical(self):
        assert run_fault_plan(99) == run_fault_plan(99)

    def test_different_seeds_diverge(self):
        # Guards against the snapshot accidentally ignoring the workload.
        assert run_regular(1) != run_regular(2)


class TestDemoAndBenchGolden:
    def test_demo_snapshot_byte_identical(self):
        first = emit.to_canonical_json(emit.demo_snapshot("timessd", seed=7, writes=300))
        second = emit.to_canonical_json(emit.demo_snapshot("timessd", seed=7, writes=300))
        assert first == second

    def test_demo_snapshot_with_trace_byte_identical(self):
        kwargs = dict(kind="regular", seed=3, writes=200, tracing=True)
        first = emit.to_canonical_json(emit.demo_snapshot(**kwargs))
        second = emit.to_canonical_json(emit.demo_snapshot(**kwargs))
        assert first == second

    @pytest.mark.slow
    def test_bench_smoke_byte_identical(self):
        first = emit.to_canonical_json(emit.bench_smoke_snapshots(seed=1, writes=600))
        second = emit.to_canonical_json(emit.bench_smoke_snapshots(seed=1, writes=600))
        assert first == second

    def test_bench_file_round_trips(self, tmp_path):
        import json

        path = tmp_path / "bench_smoke.json"
        emit.write_bench_json(path=str(path), seed=1, writes=200)
        payload = json.loads(path.read_text())
        assert payload["schema"] == emit.SCHEMA
        assert set(payload["devices"]) == {"regular", "timessd"}
        for device in payload["devices"].values():
            assert "metrics" in device and "summary" in device
            assert device["summary"]["write_amplification"] >= 1.0

    def test_committed_bench_snapshot_is_current(self):
        assert emit.check_bench_snapshot() == []
