"""``@atomic_section``: the decorator, the sections that carry it, and
the promise they make at run time.

A section's reason says why an exception partway through leaves nothing
half-applied.  No lint rule reads it; the runtime checks are below and
in the seeded firmware bugs of ``test_mutation_ratchet.py``.  The last
three tests are the selection, suppression and SARIF mechanics of a
project-cached rule (one evaluation per run, findings handed out per
module), on ``obs-uncataloged-metric``.
"""

import ast
import importlib
import json
import os

import pytest

import repro
from repro.analysis.core import SourceModule, collect_files
from repro.analysis.runner import main as lint_main
from repro.common.atomic import ATOMIC_ATTR, atomic_section
from repro.common.errors import AddressError, FlashStateError
from repro.flash.core import ColumnarFlashArray
from repro.flash.device import FlashDevice
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl.block_manager import BlockKind, BlockManager

from tests.analysis.conftest import REGISTRY, write_catalog
from tests.conftest import small_geometry


# --- The @atomic_section decorator (runtime surface) --------------------------


def test_atomic_section_returns_the_function_unchanged():
    def step():
        return 41

    marked = atomic_section("one step")(step)
    assert marked is step
    assert marked() == 41


def test_atomic_section_attaches_metadata():
    @atomic_section("why it is one step")
    def step():
        pass

    assert getattr(step, ATOMIC_ATTR) == "why it is one step"


def test_atomic_section_rejects_empty_reason():
    with pytest.raises(ValueError):
        atomic_section("")


def test_atomic_section_rejects_non_string_reason():
    with pytest.raises(ValueError):
        atomic_section(None)


# --- The sections in the tree -------------------------------------------------


def _is_atomic_decorator(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "atomic_section"
    )


def test_atomic_index_collects_sections():
    # Every ``@atomic_section(...)`` method in the source carries its
    # reason on the imported function.
    sections = set()
    for path in collect_files([os.path.dirname(repro.__file__)]):
        module = SourceModule.from_path(path)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and any(
                    map(_is_atomic_decorator, item.decorator_list)
                ):
                    sections.add((module.module, node.name, item.name))
    assert ("repro.ftl.mapping", "AddressMappingTable", "update") in sections
    assert len(sections) >= 20
    for module_name, class_name, name in sorted(sections):
        cls = getattr(importlib.import_module(module_name), class_name)
        reason = getattr(vars(cls)[name], ATOMIC_ATTR)
        assert isinstance(reason, str) and reason.strip(), (class_name, name)


def _columns(core):
    return (
        bytes(core.state),
        list(core.data),
        list(core.write_pointer),
        list(core.lpa),
        list(core.timestamp_us),
    )


def test_mutations_last_discipline_is_clean():
    # Sections whose guard raises before their first mutation, provoked
    # at run time: the raise leaves no trace.  (AddressMappingTable.update
    # is ``tests/ftl/test_mapping.py::test_bounds_checked``.)
    oob = OOBMetadata(lpa=1, back_pointer=NULL_PPA, timestamp_us=5)
    core = ColumnarFlashArray(1, 4)
    core.program(0, 0, b"x", oob)
    before = _columns(core)
    for offset in (0, 2):  # a programmed page, then out of order
        with pytest.raises(FlashStateError):
            core.program(0, offset, b"y", oob)
    assert _columns(core) == before

    bm = BlockManager(FlashDevice(small_geometry()))
    ppa = bm.allocate_page_keyed("k", BlockKind.DATA)
    bm.device.program_page(ppa, b"d", oob)
    bm.mark_valid(ppa)
    pba = bm.device.geometry.block_of_page(ppa)
    free = bm.free_block_count
    with pytest.raises(AddressError):
        bm.release_block(pba)  # still holds a valid page
    assert bm.free_block_count == free
    assert bm.is_valid(ppa)
    # The append point survived: the stream keeps filling the block.
    assert bm.allocate_page_keyed("k", BlockKind.DATA) == ppa + 1


# --- Selection, suppression and SARIF for a project-cached rule ---------------

RULE = "obs-uncataloged-metric"

EMITS_UNCATALOGED = """
    from repro.obs.metrics import metrics


    def collect():
        metrics.counter("ftl.gc.moves")
        metrics.gauge("ftl.gc.backlog")%s
"""


def _uncataloged_tree(tmp_path, package_tree, waiver=""):
    write_catalog(tmp_path, ["ftl.gc.moves"])
    return package_tree(
        {
            "repro.obs.metrics": REGISTRY,
            "repro.ftl.gc": EMITS_UNCATALOGED % waiver,
        }
    )


def test_pack_name_selects_deep_rules_and_ignore_drops_them(
    tmp_path, package_tree, capsys
):
    root = _uncataloged_tree(tmp_path, package_tree)
    assert lint_main([root]) == 1  # the one tier runs every rule
    assert lint_main([root, "--select", "layering"]) == 0
    assert lint_main([root, "--select", "obs"]) == 1
    assert RULE in capsys.readouterr().out
    assert lint_main([root, "--ignore", "obs"]) == 0


def test_suppression_with_reason_waives_a_deep_finding(
    tmp_path, package_tree, capsys
):
    waiver = "  # almanac: ignore[%s] -- a debugging gauge" % RULE
    root = _uncataloged_tree(tmp_path, package_tree, waiver)
    # Every rule runs, so a waiver that filtered nothing would be
    # reported as an unused suppression.
    assert lint_main([root]) == 0
    assert "clean" in capsys.readouterr().out


def test_sarif_covers_deep_rules(tmp_path, package_tree, capsys):
    root = _uncataloged_tree(tmp_path, package_tree)
    assert lint_main([root, "--format", "sarif"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    metadata = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    for rule_id, pack in (
        (RULE, "obs"),
        ("layering-cycle", "layering"),
        ("layering-private-cross-package", "layering"),
    ):
        assert metadata[rule_id]["properties"]["pack"] == pack
        assert metadata[rule_id]["shortDescription"]["text"]
    (result,) = run["results"]
    assert result["ruleId"] == RULE
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] > 0
    assert location["region"]["startColumn"] > 0
    assert location["artifactLocation"]["uri"].endswith("gc.py")
