"""obs-uncataloged-metric: code vs docs/OBSERVABILITY.md, both ways.

The catalog lives *outside* the analyzed tree, so these tests build it
next to the synthetic package (``find_catalog`` walks up from the
analyzed files).
"""

from repro.analysis.rules.observability import _covers, _template

from tests.analysis.conftest import rule_ids

OBS_RULE = "obs-uncataloged-metric"

REGISTRY = """
    class MetricsRegistry:
        pass

    metrics = MetricsRegistry()
"""


def _catalog(tmp_path, rows):
    docs = tmp_path / "docs"
    docs.mkdir(exist_ok=True)
    lines = [
        "# Observability",
        "",
        "## Metric catalog",
        "",
        "| metric | kind | meaning |",
        "| --- | --- | --- |",
    ]
    lines += ["| `%s` | gauge | something |" % name for name in rows]
    lines += ["", "## Something else", "", "| `not.a.metric` | x | y |"]
    (docs / "OBSERVABILITY.md").write_text("\n".join(lines) + "\n")


def test_uncataloged_emission_is_flagged(tmp_path, lint_package):
    _catalog(tmp_path, ["ftl.gc.moves"])
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.ftl.gc": """
            from repro.obs.metrics import metrics

            def collect():
                metrics.counter("ftl.gc.moves")
                metrics.gauge("ftl.gc.backlog")
        """,
    }, rules=[OBS_RULE])
    assert rule_ids(violations) == [OBS_RULE]
    assert "ftl.gc.backlog" in violations[0].message
    assert violations[0].path.endswith("gc.py")


def test_cataloged_literal_is_clean(tmp_path, lint_package):
    _catalog(tmp_path, ["ftl.gc.moves", "ftl.gc.backlog"])
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.ftl.gc": """
            from repro.obs.metrics import metrics

            def collect():
                metrics.counter("ftl.gc.moves")
                metrics.gauge("ftl.gc.backlog")
        """,
    }, rules=[OBS_RULE])
    assert violations == []


def test_percent_format_matches_placeholder_row(tmp_path, lint_package):
    _catalog(tmp_path, ["nvme.op.<OPCODE>", "flash.chip_qdepth_max.N"])
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.nvme.engine": """
            from repro.obs.metrics import metrics

            def account(op, chip):
                metrics.counter("nvme.op.%s" % op)
                metrics.gauge("flash.chip_qdepth_max.%d" % chip)
        """,
    }, rules=[OBS_RULE])
    assert violations == []


def test_fstring_emission_matches_placeholder_row(tmp_path, lint_package):
    _catalog(tmp_path, ["nvme.op.<OPCODE>"])
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.nvme.engine": """
            from repro.obs.metrics import metrics

            def account(op):
                metrics.counter(f"nvme.op.{op}")
        """,
    }, rules=[OBS_RULE])
    assert violations == []


def test_unreadable_name_expression_is_skipped(tmp_path, lint_package):
    _catalog(tmp_path, ["ftl.gc.moves"])
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.ftl.gc": """
            from repro.obs.metrics import metrics

            def collect(name):
                metrics.counter("ftl.gc.moves")
                metrics.counter(name)
        """,
    }, rules=[OBS_RULE])
    assert violations == []


def test_rotted_catalog_row_is_flagged_at_registry(tmp_path, lint_package):
    _catalog(tmp_path, ["ftl.gc.moves", "ftl.gc.retired_in_pr3"])
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.ftl.gc": """
            from repro.obs.metrics import metrics

            def collect():
                metrics.counter("ftl.gc.moves")
        """,
    }, rules=[OBS_RULE])
    assert rule_ids(violations) == [OBS_RULE]
    assert "ftl.gc.retired_in_pr3" in violations[0].message
    # Doc line number is in the message, anchor is the registry module.
    assert "line 8" in violations[0].message
    assert violations[0].path.endswith("metrics.py")


def test_no_catalog_means_no_findings(lint_package):
    violations = lint_package({
        "repro.obs.metrics": REGISTRY,
        "repro.ftl.gc": """
            from repro.obs.metrics import metrics

            def collect():
                metrics.counter("totally.undocumented")
        """,
    }, rules=[OBS_RULE])
    assert violations == []


def test_template_and_covers_normalization():
    assert _template("nvme.op.<OPCODE>") == "nvme.op.*"
    assert _template("flash.chip_qdepth_max.N") == "flash.chip_qdepth_max.*"
    assert _template("nvme.op.%s") == "nvme.op.*"
    assert _covers("nvme.op.*", "nvme.op.read")
    assert not _covers("nvme.op.*", "nvme.opread")
    assert not _covers("nvme.op.*", "nvme.op.read.extra")
    assert _covers("a.b", "a.b")
