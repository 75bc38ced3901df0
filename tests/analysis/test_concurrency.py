"""The concurrency pack: task roots, atomic sections, shared state.

Synthetic trees reuse the real root qualnames (``repro.ftl.ssd.BaseSSD
.serve_write_at`` etc.) so the hard-coded task-root table applies to them; the
shipped tree's own cleanliness is asserted by
``test_runner.test_whole_tree_is_clean``.
"""

import textwrap

import pytest

from repro.analysis.concurrency.atomicity import atomic_index
from repro.analysis.concurrency.model import (
    SCHEDULABLE_CATEGORIES,
    TASK_ROOTS,
    SharedStatePolicy,
    policy_for,
    roots_by_name,
    schedulable_roots,
)
from repro.analysis.concurrency.report import HEADER, render_report
from repro.analysis.concurrency.shared_state import build_inventory
from repro.analysis.core import Project, SourceModule, collect_files
from repro.common.atomic import ATOMIC_ATTR, atomic_section

from tests.analysis.conftest import rule_ids


def _project(package_tree, files):
    root = package_tree(files)
    return Project(
        [SourceModule.from_path(p) for p in collect_files([root])]
    )


# --- Task-root model ----------------------------------------------------------


def test_task_roots_cover_expected_categories():
    categories = {root.category for root in TASK_ROOTS}
    assert categories == {"foreground", "background", "interposed", "exclusive"}
    assert SCHEDULABLE_CATEGORIES == frozenset({"foreground", "background"})


def test_roots_by_name_is_total_and_unique():
    by_name = roots_by_name()
    assert len(by_name) == len(TASK_ROOTS)
    assert set(by_name) == {root.name for root in TASK_ROOTS}


def test_schedulable_roots_excludes_interposed_and_exclusive():
    names = {root.name for root in schedulable_roots()}
    assert "fault-hooks" not in names
    assert "recovery" not in names
    assert "host-serve" in names
    assert "background-gc" in names


def test_task_root_declarations_are_well_formed():
    for root in TASK_ROOTS:
        assert root.description
        assert root.qualnames
        assert all(q.startswith("repro.") for q in root.qualnames)


def test_policy_for_matches_glob_owner():
    assert policy_for("repro.ftl.ssd.BaseSSD") is not None
    assert policy_for("repro.obs.metrics.Counter") is not None
    assert policy_for("repro.nowhere.Nothing") is None


def test_shared_state_policy_glob_semantics():
    policy = SharedStatePolicy(
        owner="repro.obs.*", policy="monotonic", why="w"
    )
    assert policy.matches("repro.obs.metrics.Counter")
    assert not policy.matches("repro.ftl.ssd.BaseSSD")


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
            """),
        },
    )
    index = atomic_index(project)
    section = index.sections["repro.ftl.ssd.BaseSSD.commit"]
    assert section.reason == "map+program as one"
    assert section.restores_state is True
    assert index.malformed == []


def test_atomic_index_flags_empty_reason_as_malformed(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("")
                def commit(self):
                    self.x = 1
            """),
        },
        rules=["concurrency-malformed-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-malformed-atomic"]


def test_atomic_index_flags_non_literal_reason_as_malformed(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            WHY = "computed"


            class BaseSSD:
                @atomic_section(WHY)
                def commit(self):
                    self.x = 1
            """),
        },
        rules=["concurrency-malformed-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-malformed-atomic"]


def test_atomic_index_flags_non_literal_restores_state(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("fine", restores_state="yes")
                def commit(self):
                    self.x = 1
            """),
        },
        rules=["concurrency-malformed-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-malformed-atomic"]


# --- Rule: unannotated flash mutators -----------------------------------------


def test_flash_mutation_reachable_from_root_is_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": """
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return self._do(lpa)

                def _do(self, lpa):
                    return self.device.program_page(lpa, None, None, 0)
            """,
        },
        rules=["concurrency-unannotated-flash-mutator"],
    )
    assert rule_ids(violations) == ["concurrency-unannotated-flash-mutator"]
    assert "BaseSSD._do" in violations[0].message
    assert "host-serve" in violations[0].message


def test_mutation_inside_atomic_section_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return self._do(lpa)

                @atomic_section("program commits in one step")
                def _do(self, lpa):
                    return self.device.program_page(lpa, None, None, 0)
            """),
        },
        rules=["concurrency-unannotated-flash-mutator"],
    )
    assert violations == []


def test_mutator_behind_atomic_wall_is_clean(lint_package):
    # The walk must not descend *through* an atomic section: a helper
    # only callable from inside one is covered by the section.
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return self._commit(lpa)

                @atomic_section("one step")
                def _commit(self, lpa):
                    return self._raw(lpa)

                def _raw(self, lpa):
                    return self.device.program_page(lpa, None, None, 0)
            """),
        },
        rules=["concurrency-unannotated-flash-mutator"],
    )
    assert violations == []


def test_flash_layer_internals_are_not_flagged(lint_package):
    # The flash package IS the mutation layer; the rule polices the
    # firmware above it.
    violations = lint_package(
        {
            "repro.ftl.ssd": """
            from repro.flash.device import FlashDevice


            class BaseSSD:
                def __init__(self):
                    self.device = FlashDevice()

                def serve_write_at(self, lpa):
                    return self.device.commit(lpa)
            """,
            "repro.flash.device": """
            class FlashDevice:
                def commit(self, lpa):
                    return self.program_page(lpa, None, None, 0)

                def program_page(self, lpa, data, oob, t):
                    return 0
            """,
        },
        rules=["concurrency-unannotated-flash-mutator"],
    )
    assert violations == []


def test_unreached_mutator_is_not_flagged(lint_package):
    # A mutator no schedulable root can reach is recovery/test surface.
    violations = lint_package(
        {
            "repro.ftl.ssd": """
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return lpa

                def scrub(self, lpa):
                    return self.device.erase_block(lpa, 0)
            """,
        },
        rules=["concurrency-unannotated-flash-mutator"],
    )
    assert violations == []


# --- Rule: re-entrant atomic sections -----------------------------------------


def test_atomic_section_calling_task_root_is_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return lpa

                @atomic_section("one step")
                def _commit(self, lpa):
                    return self.serve_write_at(lpa)
            """),
        },
        rules=["concurrency-reentrant-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-reentrant-atomic"]
    assert "BaseSSD._commit" in violations[0].message
    assert "'host-serve'" in violations[0].message
    assert "serve_write_at" in violations[0].message


def test_atomic_section_reaching_root_transitively_is_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return lpa

                @atomic_section("one step")
                def _commit(self, lpa):
                    return self._indirect(lpa)

                def _indirect(self, lpa):
                    return self.serve_write_at(lpa)
            """),
        },
        rules=["concurrency-reentrant-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-reentrant-atomic"]


def test_atomic_section_calling_plain_helpers_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return self._commit(lpa)

                @atomic_section("one step")
                def _commit(self, lpa):
                    return self._helper(lpa)

                def _helper(self, lpa):
                    return lpa + 1
            """),
        },
        rules=["concurrency-reentrant-atomic"],
    )
    assert violations == []


# --- Rule: scheduler yields inside atomic sections ----------------------------


def test_async_atomic_section_is_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                async def _commit(self, lpa):
                    return lpa
            """),
        },
        rules=["concurrency-yield-in-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-yield-in-atomic"]


def test_atomic_section_reaching_async_helper_is_flagged(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpa):
                    return self._helper(lpa)

                async def _helper(self, lpa):
                    return lpa
            """),
        },
        rules=["concurrency-yield-in-atomic"],
    )
    assert rule_ids(violations) == ["concurrency-yield-in-atomic"]


def test_synchronous_atomic_section_is_clean(lint_package):
    violations = lint_package(
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                @atomic_section("one step")
                def _commit(self, lpa):
                    self.x = lpa
                    return self.x
            """),
        },
        rules=["concurrency-yield-in-atomic"],
    )
    assert violations == []


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


# --- Rule: unclassified shared state ------------------------------------------

CONTENDED = {
    "repro.ftl.ssd": """
    from repro.ftl.scratch import ScratchPad


    class BaseSSD:
        def __init__(self):
            self.pad = ScratchPad()

        def serve_write_at(self, lpa):
            return self.pad.poke(lpa)

        def background_collect(self, start_us, deadline_us):
            return self.pad.prod()
    """,
    "repro.ftl.scratch": """
    class ScratchPad:
        def __init__(self):
            self.counter = 0

        def poke(self, lpa):
            self.counter = lpa
            return lpa

        def prod(self):
            self.counter = 0
    """,
}


def test_two_roots_writing_unclassified_attr_is_flagged(lint_package):
    violations = lint_package(
        CONTENDED, rules=["concurrency-unclassified-shared-state"]
    )
    assert rule_ids(violations) == ["concurrency-unclassified-shared-state"]
    assert "ScratchPad" in violations[0].message
    assert "counter" in violations[0].message


def test_single_writing_root_is_clean(lint_package):
    files = dict(CONTENDED)
    files["repro.ftl.ssd"] = """
    from repro.ftl.scratch import ScratchPad


    class BaseSSD:
        def __init__(self):
            self.pad = ScratchPad()

        def serve_write_at(self, lpa):
            return self.pad.poke(lpa)

        def background_collect(self, start_us, deadline_us):
            return deadline_us
    """
    violations = lint_package(
        files, rules=["concurrency-unclassified-shared-state"]
    )
    assert violations == []


def test_policy_covered_owner_is_clean(lint_package):
    # BaseSSD/* carries a declared policy in the model, so contention on
    # its own attributes is classified.
    violations = lint_package(
        {
            "repro.ftl.ssd": """
            class BaseSSD:
                def serve_write_at(self, lpa):
                    self.gc_runs = lpa
                    return lpa

                def background_collect(self, start_us, deadline_us):
                    self.gc_runs = 0
            """,
        },
        rules=["concurrency-unclassified-shared-state"],
    )
    assert violations == []


def test_stale_policy_is_silent_on_synthetic_trees(lint_package):
    # Synthetic trees exercise almost no policy; the staleness check
    # only applies when the policy table itself is part of the tree.
    violations = lint_package(
        CONTENDED, rules=["concurrency-stale-policy"]
    )
    assert violations == []


# --- Shared-state inventory (API surface) -------------------------------------


def test_inventory_reach_includes_transitive_helpers(package_tree):
    project = _project(package_tree, CONTENDED)
    inventory = build_inventory(project)
    assert "repro.ftl.scratch.ScratchPad.poke" in inventory.reach["host-serve"]
    assert (
        "repro.ftl.scratch.ScratchPad.prod"
        in inventory.reach["background-gc"]
    )


def test_inventory_descends_atomic_interiors(package_tree):
    # Unlike the flash-mutator walk, the *inventory* must see through
    # atomic walls: state written inside a section is still shared
    # state and still needs a declared policy.
    project = _project(
        package_tree,
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    return self._commit(lpa)

                @atomic_section("one step")
                def _commit(self, lpa):
                    return self._inner(lpa)

                def _inner(self, lpa):
                    self.cursor = lpa
            """),
        },
    )
    inventory = build_inventory(project)
    reach = inventory.reach["host-serve"]
    assert "repro.ftl.ssd.BaseSSD._commit" in reach
    assert "repro.ftl.ssd.BaseSSD._inner" in reach


def test_inventory_joins_declared_policies(package_tree):
    project = _project(
        package_tree,
        {
            "repro.ftl.ssd": """
            class BaseSSD:
                def serve_write_at(self, lpa):
                    self.gc_runs = lpa
                    return lpa
            """,
        },
    )
    inventory = build_inventory(project)
    record = next(
        r
        for r in inventory.records
        if r.owner.endswith("BaseSSD") and r.attr == "gc_runs"
    )
    assert record.policy is not None
    assert record.policy.policy == "turnstile"


# --- The interleaving-contract report -----------------------------------------


def test_render_report_is_deterministic(package_tree):
    files = dict(CONTENDED)
    text_a = render_report(_project(package_tree, files))
    text_b = render_report(_project(package_tree, files))
    assert text_a == text_b
    assert text_a.startswith(HEADER)


def test_render_report_lists_sections_roots_and_state(package_tree):
    project = _project(
        package_tree,
        {
            "repro.ftl.ssd": _with_import("""
            class BaseSSD:
                def serve_write_at(self, lpa):
                    self.gc_runs = lpa
                    return self._commit(lpa)

                @atomic_section("map+program as one")
                def _commit(self, lpa):
                    return lpa
            """),
        },
    )
    text = render_report(project)
    assert "## Task roots" in text
    assert "host-serve" in text
    assert "repro.ftl.ssd.BaseSSD._commit" in text
    assert "map+program as one" in text
    assert "gc_runs" in text


def test_committed_contract_is_generated_output():
    with open("docs/interleaving-contract.md", "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    assert first == HEADER
