import pytest

from repro.cli import build_parser, main


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "history" in out
    assert "after rollback to t=0: first draft" in out


def test_info_shows_defaults(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "retention floor: 3.00 days" in out
    assert "bloom" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_bench_check_reads_the_one_committed_snapshot(tmp_path, monkeypatch, capsys):
    from repro.bench import emit

    monkeypatch.chdir(tmp_path)
    assert main(["metrics", "--bench", "--check"]) == 2
    assert emit.BENCH_SNAPSHOT in capsys.readouterr().out
    snapshot = tmp_path / emit.BENCH_SNAPSHOT
    snapshot.parent.mkdir(parents=True)
    snapshot.write_text('{"schema": "other/0"}')
    assert main(["metrics", "--bench", "--check"]) == 1
    assert "schema mismatch" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["metrics", "--check"], ["metrics", "--check", "--out", "snap.json"]],
    ids=["stdout", "out"],
)
def test_metrics_check_without_bench_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--bench" in capsys.readouterr().err
    assert not (tmp_path / "snap.json").exists()

