"""Smoke tests for the benchmark harness at tiny scale.

The real benches (under ``benchmarks/``) run minutes-long sweeps; these
tests exercise the same code paths in seconds so harness regressions
surface in the unit suite.
"""

import pytest

from repro.bench.config import bench_geometry, make_bench_regular, make_bench_timessd, prefill
from repro.bench.tables import format_table, save_result
from repro.bench.trace_experiments import run_volume


class TestBenchConfig:
    def test_geometry_defaults(self):
        geo = bench_geometry()
        assert geo.page_size == 4096
        assert geo.total_pages == 8 * 48 * 32

    def test_devices_build(self):
        regular = make_bench_regular()
        timessd = make_bench_timessd()
        assert regular.logical_pages == timessd.logical_pages

    def test_prefill_writes_working_set(self):
        ssd = make_bench_regular()
        prefill(ssd, 100)
        assert ssd.host_pages_written == 100
        assert ssd.mapping.mapped_count() == 100


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2.5), ("xyz", 3)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to the same width

    def test_save_result_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        path = save_result("smoke", "hello")
        with open(path) as handle:
            assert handle.read() == "hello\n"


class TestTraceExperiment:
    def test_run_volume_is_memoized(self):
        first = run_volume("fiu", "webusers", "regular", 0.5, days=1, seed=99)
        second = run_volume("fiu", "webusers", "regular", 0.5, days=1, seed=99)
        assert first is second

    def test_run_volume_produces_metrics(self):
        result = run_volume("msr", "usr", "timessd", 0.5, days=1, seed=98)
        assert result.requests >= 0
        assert result.write_amplification >= 0
        assert result.retention_days >= 0


class TestExperimentRunnersSmall:
    def test_iozone_runner(self):
        from repro.bench.fs_experiments import normalized, run_iozone

        results = run_iozone(file_pages=32, seed=1)
        norm = normalized({s: results[s]["RandomWrite"] for s in results})
        assert norm["Ext4"] == 1.0
        assert norm["TimeSSD"] > 1.0

    def test_postmark_runner(self):
        from repro.bench.fs_experiments import run_postmark

        tps = run_postmark(transactions=40, seed=1)
        assert set(tps) == {"Ext4", "F2FS", "TimeSSD"}
        assert all(v > 0 for v in tps.values())

    def test_security_runner_single_family(self):
        from repro.bench.security_experiments import run_family

        timing = run_family("Stampado", seed=3)
        assert timing.timessd_verified and timing.flashguard_verified
        assert timing.timessd_recovery_s > 0

    def test_query_runner_single_volume(self):
        from repro.bench.query_experiments import run_volume_queries

        row = run_volume_queries("fiu", "webusers", usage=0.4, days=1, seed=97)
        assert row.time_query_s > 0
        assert row.addr_query_all_ms > 0

    def test_revert_runner_small(self, monkeypatch):
        from repro.bench.revert_experiments import run_fig11
        from repro.casestudies import FileRevertStudy

        reverted = []  # each revert's file, read from the device after it
        revert_file = FileRevertStudy.revert_file

        def spy(study, name, t, threads=1, verify=True):
            outcome = revert_file(study, name, t, threads, verify)
            ssd = study.fs.ssd
            reverted.append([ssd.read(lpa)[0] for lpa in study.fs.file_lpas(name)])
            return outcome

        monkeypatch.setattr(FileRevertStudy, "revert_file", spy)
        rows = run_fig11(commits=40, threads=(1, 2))
        assert len(rows) == 10
        assert all(r.verified for r in rows)
        # 40 commits at 100 a minute are 24 s of history, so a minute
        # back no file existed yet: every revert empties its file.
        assert len(reverted) == 20
        assert all(pages == [None] * 10 for pages in reverted)

    def test_ablation_runner_small(self):
        from repro.bench.ablations import ablate_gc_threshold

        points = ablate_gc_threshold(volume="usr", usage=0.4, days=1, thresholds=(1.0,))
        assert len(points) == 1
        assert not points[0].aborted
