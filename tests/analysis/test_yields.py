"""The yield tier: staleness across waits, task-generator protocol,
and the extended contract report.

Synthetic trees define a minimal ``repro.sched.core`` with the real
wait-instruction and ``EventLoop.spawn`` qualnames so the hard-coded
seeds in ``repro.analysis.concurrency.model`` apply; task-root names
(``repro.sched.tasks.background_gc_task``) reuse the real root table so
the shared-state inventory sees the writes.  The shipped tree's own
cleanliness is asserted by ``test_runner.test_whole_tree_is_clean``.
"""

import json

from repro.analysis.concurrency.report import render_report
from repro.analysis.concurrency.yields import yield_analysis
from repro.analysis.core import Project, SourceModule, collect_files
from repro.analysis.runner import main as lint_main

from tests.analysis.conftest import rule_ids

SCHED_CORE = """
    class Delay:
        def __init__(self, us):
            self.us = us

    class At:
        def __init__(self, at_us):
            self.at_us = at_us

    class EventLoop:
        def spawn(self, gen, name, root="task", daemon=False, at_us=None):
            return (gen, name, root, daemon, at_us)
"""


def _project(package_tree, files):
    root = package_tree(files)
    return Project(
        [SourceModule.from_path(p) for p in collect_files([root])]
    )


def _tree(extra):
    files = {"repro.sched.core": SCHED_CORE}
    files.update(extra)
    return files


# --- Task-generator detection and the may-yield set ---------------------------


def test_task_generator_detected_via_wait_yield(package_tree):
    project = _project(package_tree, _tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                while True:
                    yield Delay(100)
        """,
    }))
    analysis = yield_analysis(project)
    assert (
        "repro.sched.tasks.background_gc_task" in analysis.task_generators
    )
    assert analysis.daemons == frozenset()


def test_task_generator_detected_via_spawn_with_daemon_flag(package_tree):
    project = _project(package_tree, _tree({
        "repro.sched.tasks": """
            from repro.sched.core import EventLoop

            def worker_task(ssd):
                yield ssd.next_item()

            def install(loop, ssd):
                loop.spawn(worker_task(ssd), name="w", daemon=True)
        """,
    }))
    analysis = yield_analysis(project)
    assert "repro.sched.tasks.worker_task" in analysis.task_generators
    assert "repro.sched.tasks.worker_task" in analysis.daemons
    assert "repro.sched.tasks.install" not in analysis.task_generators


def test_data_generator_is_not_a_task_generator(package_tree):
    project = _project(package_tree, _tree({
        "repro.flash.device": """
            class FlashDevice:
                def scan_oob(self, block):
                    for page in self.pages(block):
                        yield page
        """,
    }))
    analysis = yield_analysis(project)
    assert analysis.task_generators == {}
    # ... but it still lands in the may-yield set for the contract.
    assert (
        "repro.flash.device.FlashDevice.scan_oob" in analysis.may_yield
    )


def test_may_yield_propagates_to_callers_over_confident_edges(package_tree):
    project = _project(package_tree, _tree({
        "repro.ftl.ssd": """
            from repro.sched.core import Delay

            class BaseSSD:
                def write(self, lpa):
                    return self._wait_then(lpa)

                def _wait_then(self, lpa):
                    yield Delay(5)

                def trim(self, lpa):
                    return lpa
        """,
    }))
    analysis = yield_analysis(project)
    assert "repro.ftl.ssd.BaseSSD._wait_then" in analysis.may_yield
    assert "repro.ftl.ssd.BaseSSD.write" in analysis.may_yield
    assert "repro.ftl.ssd.BaseSSD.trim" not in analysis.may_yield


def test_yield_from_delegation_closure(package_tree):
    project = _project(package_tree, _tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def drain_task(ssd):
                yield Delay(1)
                yield from drain_helper(ssd)

            def drain_helper(ssd):
                yield Delay(3)
        """,
    }))
    analysis = yield_analysis(project)
    assert "repro.sched.tasks.drain_helper" in analysis.task_generators


# --- concurrency-stale-read-after-yield ---------------------------------------

STALE_RULE = "concurrency-stale-read-after-yield"


def test_stale_read_after_yield_fires(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                while True:
                    pending = ssd.queue_len
                    ssd.queue_len = pending + 1
                    yield Delay(100)
                    ssd.consume(pending)
        """,
    }), rules=[STALE_RULE])
    assert rule_ids(violations) == [STALE_RULE]
    assert "pending" in violations[0].message
    assert "queue_len" in violations[0].message


def test_stale_read_rereading_after_yield_is_clean(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                while True:
                    pending = ssd.queue_len
                    ssd.queue_len = pending + 1
                    yield Delay(100)
                    pending = ssd.queue_len
                    ssd.consume(pending)
        """,
    }), rules=[STALE_RULE])
    assert violations == []


def test_stale_read_skips_data_generators(lint_package):
    # The same capture/use shape, but the generator yields values to a
    # same-task consumer — its yields do not suspend the task.
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            def background_gc_task(loop, ssd):
                pending = ssd.queue_len
                ssd.queue_len = pending + 1
                yield pending
                ssd.consume(pending)
        """,
    }), rules=[STALE_RULE])
    assert violations == []


# --- Task-generator protocol --------------------------------------------------


def test_bad_yield_value_fires_on_non_instruction(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(5)
                yield 42
        """,
    }), rules=["concurrency-bad-yield-value"])
    assert rule_ids(violations) == ["concurrency-bad-yield-value"]
    assert "42" in violations[0].message


def test_bad_yield_value_fires_on_bare_yield(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(5)
                yield
        """,
    }), rules=["concurrency-bad-yield-value"])
    assert rule_ids(violations) == ["concurrency-bad-yield-value"]
    assert "bare" in violations[0].message


def test_bad_yield_value_accepts_instruction_alias(lint_package):
    violations = lint_package(_tree({
        "repro.sched.core": SCHED_CORE,
        "repro.sched.tasks": """
            from repro.sched.core import Delay, EventLoop

            def tick_task(ssd):
                step = Delay(5)
                while True:
                    yield step

            def install(loop, ssd):
                loop.spawn(tick_task(ssd), name="tick")
        """,
    }), rules=["concurrency-bad-yield-value"])
    assert violations == []


def test_bad_yield_value_flags_delegated_value_yields(lint_package):
    # ``yield from`` forwards the sub-generator's yields to the loop,
    # so a value-yielding delegate is flagged *inside the delegate*.
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(1)
                yield from page_stream(ssd)

            def page_stream(ssd):
                yield 1
        """,
    }), rules=["concurrency-bad-yield-value"])
    assert len(violations) == 1
    assert "page_stream" in violations[0].message


def test_yield_from_unresolvable_delegate_is_flagged(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(1)
                yield from ssd.page_stream()
        """,
    }), rules=["concurrency-bad-yield-value"])
    assert rule_ids(violations) == ["concurrency-bad-yield-value"]
    assert "yield from" in violations[0].message


def test_return_in_daemon_fires(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay, EventLoop

            def worker_task(ssd):
                if ssd.done:
                    return
                yield Delay(5)

            def install(loop, ssd):
                loop.spawn(worker_task(ssd), name="w", daemon=True)
        """,
    }), rules=["concurrency-return-in-daemon"])
    assert rule_ids(violations) == ["concurrency-return-in-daemon"]


def test_return_in_non_daemon_task_is_fine(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay, EventLoop

            def worker_task(ssd):
                if ssd.done:
                    return
                yield Delay(5)

            def install(loop, ssd):
                loop.spawn(worker_task(ssd), name="w")
        """,
    }), rules=["concurrency-return-in-daemon"])
    assert violations == []


# --- Suppression and selection interplay (regression: --select) ---------------


def test_selecting_single_new_rule_runs_only_it(package_tree, capsys):
    root = package_tree(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                print("noise")
                yield Delay(5)
                yield 42
        """,
    }))
    # The tree has a hygiene-print hit AND a bad yield; a single-rule
    # selection must surface only the selected rule.
    assert lint_main(
        [root, "--select", "concurrency-bad-yield-value"]
    ) == 1
    out = capsys.readouterr().out
    assert "concurrency-bad-yield-value" in out
    assert "hygiene-print" not in out


def test_pack_name_selects_new_rules_uniformly(package_tree, capsys):
    root = package_tree(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(5)
                yield 42
        """,
    }))
    assert lint_main([root, "--select", "concurrency"]) == 1
    assert "concurrency-bad-yield-value" in capsys.readouterr().out
    # ... and --ignore drops them from a deep run.
    assert lint_main(
        [root, "--deep", "--ignore", "concurrency,obs"]
    ) == 0


def test_suppression_with_reason_waives_finding(lint_package):
    violations = lint_package(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                while True:
                    pending = ssd.queue_len
                    ssd.queue_len = pending + 1
                    yield Delay(100)
                    ssd.consume(pending)  # almanac: ignore[concurrency-stale-read-after-yield] -- advisory count, one wasted step max
        """,
    }), rules=[STALE_RULE])
    assert violations == []


def test_blanket_ignores_not_judged_on_filtered_runs(package_tree, capsys):
    root = package_tree(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                while True:
                    hot = ssd.queue_len  # almanac: ignore
                    yield Delay(100)
        """,
    }))
    # A filtered run cannot prove the blanket ignore useless (other
    # rules might need it), so unused-suppression must stay quiet.
    assert lint_main(
        [root, "--select", "concurrency-stale-read-after-yield"]
    ) == 0


# --- SARIF output for the new rules -------------------------------------------


def test_sarif_covers_yield_rules(package_tree, capsys):
    root = package_tree(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                while True:
                    pending = ssd.queue_len
                    ssd.queue_len = pending + 1
                    yield Delay(100)
                    ssd.consume(pending)
        """,
    }))
    assert lint_main([root, "--deep", "--format", "sarif"]) == 1
    document = json.loads(capsys.readouterr().out)
    run = document["runs"][0]
    metadata = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    for rule_id in (
        "concurrency-stale-read-after-yield",
        "concurrency-bad-yield-value",
        "concurrency-return-in-daemon",
        "obs-uncataloged-metric",
    ):
        assert metadata[rule_id]["properties"]["pack"] in (
            "concurrency", "obs"
        )
        assert metadata[rule_id]["shortDescription"]["text"]
    by_rule = {}
    for result in run["results"]:
        by_rule.setdefault(result["ruleId"], []).append(result)
    assert "concurrency-stale-read-after-yield" in by_rule
    stale = by_rule["concurrency-stale-read-after-yield"][0]
    region = stale["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] > 0
    assert region["startColumn"] > 0
    uri = stale["locations"][0]["physicalLocation"]["artifactLocation"]
    assert uri["uri"].endswith("tasks.py")


def test_sarif_suppressed_findings_are_absent(package_tree, capsys):
    root = package_tree(_tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(5)
                yield 42  # almanac: ignore[concurrency-bad-yield-value] -- drained by a same-task consumer in tests
        """,
    }))
    assert lint_main(
        [root, "--select", "concurrency-bad-yield-value", "--format",
         "sarif"]
    ) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["runs"][0]["results"] == []


# --- The extended contract report ---------------------------------------------


def test_report_gains_yield_point_section(package_tree):
    project = _project(package_tree, _tree({
        "repro.sched.tasks": """
            from repro.sched.core import Delay

            def background_gc_task(loop, ssd):
                yield Delay(10)
        """,
    }))
    text = render_report(project)
    assert "## Yield points" in text
    assert "### Task generators" in text
    assert "`repro.sched.tasks.background_gc_task`" in text
    # Determinism: regenerating over the same project is byte-identical.
    assert render_report(project) == text
