import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "history" in out
    assert "after rollback to t=0: first draft" in out


def test_list_shows_all_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_info_shows_defaults(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "retention floor: 3.00 days" in out
    assert "bloom" in out


def test_unknown_experiment_id(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_experiment_runs_small(capsys):
    assert main(["experiment", "fig7a", "--days", "2"]) == 0
    out = capsys.readouterr().out
    assert "TimeSSD WA" in out
    assert "webusers" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_trace_stats_synthetic(capsys):
    assert main(["trace-stats", "fiu:webmail", "--days", "2", "--scale", "30"]) == 0
    out = capsys.readouterr().out
    assert "write ratio" in out


def test_trace_stats_file(tmp_path, capsys):
    from repro.workloads.io import save_trace_csv
    from repro.workloads.msr import msr_trace

    path = str(tmp_path / "t.csv")
    save_trace_csv(list(msr_trace("hm", 2048, days=1, seed=1, intensity_scale=30)), path)
    assert main(["trace-stats", path]) == 0
    assert "native trace" in capsys.readouterr().out


def test_bench_ratchet_follows_the_newest_committed_snapshot(
    tmp_path, monkeypatch, capsys
):
    from repro.bench import emit

    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        emit.newest_bench_file()
    assert main(["metrics", "--bench", "--check"]) == 2
    assert "no committed BENCH_pr<N>.json" in capsys.readouterr().out
    for name in ("BENCH_pr9.json", "BENCH_pr12.json", "BENCH_pr12.json.bak"):
        (tmp_path / name).write_text('{"schema": "other/0"}')
    # Numeric, not lexicographic: pr12 is newer than pr9.
    assert emit.newest_bench_file().endswith("BENCH_pr12.json")
    assert main(["metrics", "--bench", "--check"]) == 1
    out = capsys.readouterr().out
    assert "schema mismatch" in out and "BENCH_pr9" not in out
