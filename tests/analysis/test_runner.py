"""Entry points: ``python -m repro.analysis`` and ``repro lint``."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis.core import analyze_paths
from repro.analysis.runner import main as lint_main
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

CLEAN = "from repro.common.units import SECOND_US\nWINDOW_US = 3 * SECOND_US\n"
DIRTY = "import time\n\n\ndef stamp():\n    return time.time()\n"


def test_exit_zero_and_clean_banner_on_clean_file(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    assert lint_main([str(path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_with_rule_id_and_location(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    assert lint_main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "dirty.py:5:12" in out
    assert "[determinism-wallclock]" in out
    assert "1 violation" in out


def test_rules_filter_limits_scope(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY + "def f(x=[]):\n    return x\n")
    assert lint_main([str(path), "--select", "hygiene-mutable-default"]) == 1
    out = capsys.readouterr().out
    assert "hygiene-mutable-default" in out
    assert "determinism-wallclock" not in out


def test_missing_path_is_usage_error(tmp_path, capsys):
    # A typo'd CI invocation must fail loudly, not report a clean run.
    assert lint_main([str(tmp_path / "no_such_dir")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    assert lint_main([str(path), "--select", "bogus"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules_shows_every_pack(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for pack in ("determinism", "layering", "hygiene", "obs"):
        assert pack in out
    assert "layering-private-cross-package" in out


def test_repro_lint_subcommand(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    assert cli_main(["lint", str(path)]) == 1
    assert "[determinism-wallclock]" in capsys.readouterr().out
    assert cli_main(["lint", "--list-rules"]) == 0
    assert "determinism-wallclock" in capsys.readouterr().out


def test_sarif_format_parses_with_rule_metadata(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    assert lint_main([str(path), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    results = run["results"]
    assert results[0]["ruleId"] == "determinism-wallclock"
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "determinism-wallclock" in declared


def test_sarif_clean_run_has_empty_results(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    assert lint_main([str(path), "--format", "sarif"]) == 0
    assert json.loads(capsys.readouterr().out)["runs"][0]["results"] == []


def test_select_and_ignore_filter_rules(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    assert (
        lint_main(
            [
                str(path),
                "--select",
                "determinism",
                "--ignore",
                "determinism-wallclock",
            ]
        )
        == 0
    )
    assert "clean" in capsys.readouterr().out


def test_ignore_drops_whole_pack(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    assert lint_main([str(path), "--ignore", "determinism"]) == 0
    capsys.readouterr()


def test_deep_flag_runs_whole_program_passes(tmp_path, capsys):
    # There is one tier: the private call that needed ``--deep`` and the
    # call graph is caught by a default run, and ``--deep`` is gone.
    for name in ("ftl", "nvme"):
        (tmp_path / "repro" / name).mkdir(parents=True)
        (tmp_path / "repro" / name / "__init__.py").write_text("")
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "ftl" / "gc.py").write_text("def _collect():\n    pass\n")
    (tmp_path / "repro" / "nvme" / "ctl.py").write_text(
        "from repro.ftl.gc import _collect\n\ndef submit():\n    _collect()\n"
    )
    assert lint_main([str(tmp_path / "repro")]) == 1
    assert "layering-private-cross-package" in capsys.readouterr().out
    with pytest.raises(SystemExit) as usage:
        lint_main([str(tmp_path / "repro"), "--deep"])
    assert usage.value.code == 2
    assert "--deep" in capsys.readouterr().err


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n    pass\n")
    assert lint_main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "[parse-error]" in out


def test_undecodable_file_is_reported_not_raised(tmp_path, capsys):
    path = tmp_path / "binary.py"
    path.write_bytes(b"\xff\xfe\x00junk\x80\x81")
    assert lint_main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "[parse-error]" in out


def test_whole_tree_is_clean(capsys):
    # The acceptance gate, as CI's two lint steps run it: the shipped
    # tree has zero violations under every rule (rules=None selects
    # them all), and tests, benchmarks and examples under every rule
    # but hygiene-print.
    assert analyze_paths([SRC_REPRO]) == []
    others = [
        os.path.join(REPO_ROOT, name)
        for name in ("tests", "benchmarks", "examples")
    ]
    assert lint_main(others + ["--ignore", "hygiene-print"]) == 0, (
        capsys.readouterr().out
    )


def test_rule_catalog_matches_the_rule_table(capsys):
    # docs/ANALYSIS.md's pack tables name exactly the rules
    # --list-rules prints: a rule cannot ship undocumented, and a
    # deleted rule cannot keep its row.
    assert lint_main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    with open(os.path.join(REPO_ROOT, "docs", "ANALYSIS.md")) as handle:
        doc = handle.read()
    packs = doc[doc.index("## Rule packs"):doc.index("## Suppressing a finding")]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", packs, re.MULTILINE))
    assert documented == listed


def test_stats_flag_reports_per_rule_counts(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    assert lint_main([str(path), "--stats"]) == 1
    err = capsys.readouterr().err
    assert "findings by rule:" in err
    assert "determinism-wallclock" in err
    assert "rules run:" in err


def test_lint_loads_no_runtime_module():
    # The linter must be able to lint a tree whose runtime does not
    # import, so ``python -m repro.analysis`` may load ``repro`` itself
    # and ``repro.analysis.*`` — nothing else of the package.
    probe = (
        "import runpy, sys\n"
        "sys.argv = ['repro.analysis', '--list-rules']\n"
        "try:\n"
        "    runpy.run_module('repro.analysis', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('LOADED', sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.startswith('repro.')\n"
        "    and not m.startswith('repro.analysis')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.splitlines()[-1] == "LOADED []"
