"""The crash-point torture harness and the no-op-plan parity contract."""

import pytest

from repro.faults.hooks import FaultHooks
from repro.faults.plan import FaultPlan
from repro.faults.torture import (
    TortureConfig,
    build_workload,
    count_flash_ops,
    run_crash_point,
    run_torture,
)

from tests.conftest import make_timessd

SMOKE = TortureConfig(ops=120, crash_every=29)


class TestHarness:
    def test_workload_is_deterministic_and_mixed(self):
        config = TortureConfig()
        workload = build_workload(config)
        assert workload == build_workload(config)
        assert {op for op, _, _ in workload} == {"write", "trim"}
        # The fill prefix is sequential writes over the working set.
        prefix = workload[: config.working_set]
        assert [lpa for _, lpa, _ in prefix] == list(range(config.working_set))
        assert all(op == "write" for op, _, _ in prefix)

    def test_crash_point_smoke_sweep_recovers(self):
        report = run_torture(SMOKE)
        expected_cuts = -(-report.total_flash_ops // SMOKE.crash_every)
        assert report.cuts_tested == expected_cuts
        assert report.ok, "\n".join(report.summary_lines())

    def test_single_cut_outcome_details(self):
        config = TortureConfig(ops=80)
        total = count_flash_ops(config)
        assert total > config.working_set  # at least one program per fill op
        outcome = run_crash_point(config, cut_at=total // 2)
        assert outcome.ok, outcome.problems
        assert outcome.acked_ops > 0

    def test_clean_cut_sweep_also_recovers(self):
        report = run_torture(TortureConfig(ops=100, crash_every=43, torn=False))
        assert report.ok, "\n".join(report.summary_lines())
        # A clean cut commits nothing mid-program: no torn pages ever.
        assert all(o.torn_pages == 0 for o in report.outcomes)


@pytest.mark.slow
def test_exhaustive_crash_point_sweep():
    """Every flash op of the default workload is a survivable crash point."""
    report = run_torture(TortureConfig())
    assert report.ok, "\n".join(report.summary_lines())


class TestNoOpPlanParity:
    def test_empty_plan_changes_nothing(self):
        """Hooks with no armed spec are free: bit-identical device state."""

        def run(faults):
            ssd = make_timessd(faults=faults)
            for i in range(300):
                lpa = i % 40
                ssd.write(lpa)
                ssd.clock.advance(900)
                if i % 7 == 0:
                    ssd.trim((lpa + 13) % 40)
            return (
                ssd.clock.now_us,
                ssd.host_pages_written,
                ssd.gc_runs,
                ssd.background_gc_runs,
                ssd.device.page_programs.value,
                ssd.device.page_reads.value,
                ssd.device.block_erases.value,
                ssd.retained_pages,
            )

        assert run(None) == run(FaultHooks(FaultPlan()))
