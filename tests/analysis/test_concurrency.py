"""``@atomic_section``: the decorator, its AST discovery, and the one
rule that reads it (``concurrency-atomic-raise-after-mutate``).

The shipped tree's own cleanliness is asserted by
``test_runner.test_whole_tree_is_clean``.
"""

import json
import textwrap

import pytest

from repro.analysis.atomicity import atomic_index
from repro.analysis.core import Project, SourceModule, collect_files
from repro.analysis.runner import main as lint_main
from repro.common.atomic import ATOMIC_ATTR, atomic_section

from tests.analysis.conftest import rule_ids


def _project(package_tree, files):
    root = package_tree(files)
    return Project(
        [SourceModule.from_path(p) for p in collect_files([root])]
    )


# --- The @atomic_section decorator (runtime surface) --------------------------


def test_atomic_section_returns_the_function_unchanged():
    def step():
        return 41

    marked = atomic_section("one step")(step)
    assert marked is step
    assert marked() == 41


def test_atomic_section_attaches_metadata():
    @atomic_section("why it is one step", restores_state=True)
    def step():
        pass

    meta = getattr(step, ATOMIC_ATTR)
    assert meta == {"reason": "why it is one step", "restores_state": True}


def test_atomic_section_rejects_empty_reason():
    with pytest.raises(ValueError):
        atomic_section("")


def test_atomic_section_rejects_non_string_reason():
    with pytest.raises(ValueError):
        atomic_section(None)


def test_atomic_section_rejects_non_bool_restores_state():
    with pytest.raises(ValueError):
        atomic_section("fine", restores_state="yes")


# --- Atomic-section discovery (AST surface) -----------------------------------

IMPORT = "from repro.common.atomic import atomic_section\n"


def _with_import(body):
    """Prepend the atomic_section import to an (indented) source body."""
    return IMPORT + textwrap.dedent(body)


def test_atomic_index_collects_sections(package_tree):
    project = _project(
        package_tree,
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("map+program as one", restores_state=True)
                def commit(self):
                    self.x = 1

                @atomic_section
                def bare(self):
                    self.x = 2

                @atomic_section("fine", restores_state="yes")
                def flagged(self):
                    self.x = 3
            """),
        },
    )
    index = atomic_index(project)
    # The two malformed uses raise ValueError when the module is
    # imported; the index skips them instead of reporting them.
    assert set(index) == {"repro.ftl.ssd.BaseSSD.commit"}
    section = index["repro.ftl.ssd.BaseSSD.commit"]
    assert section.reason == "map+program as one"
    assert section.restores_state is True


# --- Rule: exception-state consistency ----------------------------------------


def test_raise_after_attribute_store_is_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpa):
                    self.cursor = lpa
                    if lpa < 0:
                        raise ValueError("bad lpa")
            """),
        },
        rules=["concurrency-atomic-raise-after-mutate"],
    )
    assert rule_ids(violations) == ["concurrency-atomic-raise-after-mutate"]
    assert "ValueError" in violations[0].message


def test_mutations_last_discipline_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpa):
                    if lpa < 0:
                        raise ValueError("bad lpa")
                    self.cursor = lpa
            """),
        },
        rules=["concurrency-atomic-raise-after-mutate"],
    )
    assert violations == []


def test_restores_state_waives_raise_after_mutate(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step", restores_state=True)
                def _commit(self, lpa):
                    self.cursor = lpa
                    if lpa < 0:
                        raise ValueError("bad lpa")
            """),
        },
        rules=["concurrency-atomic-raise-after-mutate"],
    )
    assert violations == []


def test_caught_exception_does_not_count(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpa):
                    self.cursor = lpa
                    try:
                        self._check(lpa)
                    except ValueError:
                        return None
                    return lpa

                def _check(self, lpa):
                    if lpa < 0:
                        raise ValueError("bad lpa")
            """),
        },
        rules=["concurrency-atomic-raise-after-mutate"],
    )
    assert violations == []


def test_project_subclass_is_absorbed_by_its_base_handler(lint_package):
    # The hierarchy walk crosses modules: TraceError is caught as the
    # ReproError it subclasses; an unrelated handler absorbs nothing.
    files = {
        "repro.common.errors": """
            class ReproError(Exception):
                pass


            class TraceError(ReproError):
                pass
        """,
        "repro.ftl.ssd": _with_import("""
        from repro.common.errors import ReproError, TraceError


        class BaseSSD:
            @atomic_section("one step")
            def _commit(self, lpa):
                self.cursor = lpa
                try:
                    self._check(lpa)
                except %s:
                    return None
                return lpa

            def _check(self, lpa):
                if lpa < 0:
                    raise TraceError("bad lpa")
        """),
    }
    source = files["repro.ftl.ssd"]
    files["repro.ftl.ssd"] = source % "ReproError"
    assert lint_package(files, rules=[RULE]) == []
    files["repro.ftl.ssd"] = source % "KeyError"
    violations = lint_package(files, rules=[RULE])
    assert rule_ids(violations) == [RULE]
    assert "TraceError" in violations[0].message


def test_loop_join_of_mutation_and_raise_is_flagged(lint_package):
    # Inside one loop the raise re-executes after earlier iterations'
    # mutations even when it textually precedes them.
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpas):
                    for lpa in lpas:
                        self._check(lpa)
                        self.cursor = lpa

                def _check(self, lpa):
                    if lpa < 0:
                        raise ValueError("bad lpa")
            """),
        },
        rules=["concurrency-atomic-raise-after-mutate"],
    )
    assert rule_ids(violations) == ["concurrency-atomic-raise-after-mutate"]
    assert "one loop" in violations[0].message


def test_exception_set_collapses_to_one_finding(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpa):
                    self.cursor = lpa
                    self._check(lpa)

                def _check(self, lpa):
                    if lpa < 0:
                        raise ValueError("negative")
                    if lpa > 100:
                        raise KeyError("huge")
                    if lpa == 13:
                        raise TypeError("unlucky")
            """),
        },
        rules=["concurrency-atomic-raise-after-mutate"],
    )
    assert len(violations) == 1
    assert "(+1 more)" in violations[0].message


# --- Selection, suppression and SARIF for a deep, project-cached rule ---------

RULE = "concurrency-atomic-raise-after-mutate"

RAISES_LATE = """
    class BaseSSD:
        @atomic_section("one step")
        def _commit(self, lpa):
            self.cursor = lpa
            self._check(lpa)%s

        def _check(self, lpa):
            if lpa < 0:
                raise ValueError("bad lpa")
"""


def test_pack_name_selects_deep_rules_and_ignore_drops_them(
    package_tree, capsys
):
    root = package_tree({"repro.ftl.ssd": _with_import(RAISES_LATE % "")})
    assert lint_main([root]) == 0  # deep rules are off by default
    assert lint_main([root, "--select", "concurrency"]) == 1
    assert RULE in capsys.readouterr().out
    assert lint_main([root, "--deep", "--ignore", "concurrency,obs"]) == 0


def test_suppression_with_reason_waives_a_deep_finding(lint_package):
    waiver = "  # almanac: ignore[%s] -- the cursor is advisory" % RULE
    violations = lint_package(
        {"repro.ftl.ssd": _with_import(RAISES_LATE % waiver)}, rules=[RULE]
    )
    assert violations == []


def test_sarif_covers_deep_rules(package_tree, capsys):
    root = package_tree({"repro.ftl.ssd": _with_import(RAISES_LATE % "")})
    assert lint_main([root, "--deep", "--format", "sarif"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    metadata = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    for rule_id, pack in ((RULE, "concurrency"), ("obs-uncataloged-metric", "obs")):
        assert metadata[rule_id]["properties"]["pack"] == pack
        assert metadata[rule_id]["shortDescription"]["text"]
    (result,) = [r for r in run["results"] if r["ruleId"] == RULE]
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] > 0
    assert location["region"]["startColumn"] > 0
    assert location["artifactLocation"]["uri"].endswith("ssd.py")
