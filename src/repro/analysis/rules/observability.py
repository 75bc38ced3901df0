"""The metric catalog must match the code (both ways).

docs/OBSERVABILITY.md carries the metric catalog — the named contract
every experiment table and identity check is written against.  The
catalog is prose, so nothing stops it rotting: a counter renamed in
code keeps its old row, a new gauge ships uncataloged.  This rule
cross-checks the two surfaces:

* every ``metrics.counter("...")`` / ``gauge`` / ``histogram`` name in
  the analyzed tree must match a catalog row, and
* every catalog row must still be referenced somewhere in the tree.

Dynamic name segments meet their placeholders structurally: an emission
``"nvme.op.%s" % opcode`` normalizes to the template ``nvme.op.*``,
catalog placeholders (``<OPCODE>``, a trailing ``.N``) normalize the
same way, and templates compare segment-wise.  A name built from an
expression the analysis cannot read (no literal skeleton at all) is
skipped, never guessed at.

The catalog is discovered by walking up from the registry module
(``repro.obs.metrics``) to the nearest ``docs/OBSERVABILITY.md``.  No
registry among the analyzed modules (a lint of ``tests/`` alone) or no
catalog means no findings: the rule only ever judges a tree that
carries the contract.
"""

import ast
import os
import re

from repro.analysis.imports import dotted

#: Registry factory methods whose first argument names a metric.
METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

CATALOG_RELPATH = os.path.join("docs", "OBSERVABILITY.md")
CATALOG_HEADING = "## Metric catalog"

#: Module that owns the registry — the rule judges only a tree that
#: contains it, and direction-2 findings anchor here, because a rotted
#: row's fix is in code-or-docs, not at any one site.
REGISTRY_MODULE = "repro.obs.metrics"


def _template(name):
    """Normalize a metric name to a segment template (``*`` wildcards).

    Handles catalog placeholders (``<OPCODE>`` anywhere, a bare ``N``
    segment) and emission skeletons (``%s``/``%d`` from ``%``-format).
    """
    out = re.sub(r"<[^<>]+>", "*", name)
    out = re.sub(r"%[sdxr]", "*", out)
    parts = [
        "*" if part == "N" else part for part in out.split(".")
    ]
    out = ".".join(parts)
    # Collapse wildcard runs inside one segment: `*_*` etc. stay as-is;
    # only adjacent duplicates collapse so equality is canonical.
    return re.sub(r"\*+", "*", out)


def _covers(template, name):
    """True when a wildcard template matches a concrete-or-equal name."""
    if template == name:
        return True
    if "*" not in template:
        return False
    pattern = "^%s$" % re.escape(template).replace(
        "\\*", "[A-Za-z0-9_]+"
    )
    return re.match(pattern, name) is not None


def _literal_skeleton(node):
    """The literal template of a metric-name expression, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _template(node.value)
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    ):
        return _template(node.left.value)
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("*")
        return _template("".join(parts))
    return None


def emitted_templates(module):
    """(template, node) per readable metric reference in one module."""
    for node in module.calls:
        func = node.func
        if (
            not node.args
            or not isinstance(func, ast.Attribute)
            or func.attr not in METRIC_FACTORIES
        ):
            continue
        chain = dotted(func.value)
        if chain is None or "metrics" not in chain:
            continue
        template = _literal_skeleton(node.args[0])
        if template is not None:
            yield template, node


def parse_catalog(text):
    """(name, line) per backticked name in the catalog table."""
    names = []
    in_catalog = False
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("## "):
            in_catalog = stripped == CATALOG_HEADING
            continue
        if not in_catalog or not stripped.startswith("|"):
            continue
        cells = [cell.strip() for cell in stripped.strip("|").split("|")]
        if not cells or set(cells[0]) <= {"-", " "}:
            continue
        for match in re.finditer(r"`([^`]+)`", cells[0]):
            names.append((match.group(1), lineno))
    return names


def find_catalog(start):
    """Nearest ``docs/OBSERVABILITY.md`` at or above ``start``."""
    directory = os.path.abspath(start)
    if not os.path.isdir(directory):
        directory = os.path.dirname(directory)
    while True:
        candidate = os.path.join(directory, CATALOG_RELPATH)
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def uncataloged_metric(module, project):
    for found_module, anchor, message in project.metric_findings:
        if found_module is module:
            yield anchor, message


def catalog_findings(project):
    """``(module, anchor, message)`` per drift between the emitted
    metric names and the catalog rows, both ways."""
    registry = project.by_module.get(REGISTRY_MODULE)
    if registry is None:
        return []
    catalog_path = find_catalog(registry.path)
    if catalog_path is None:
        return []
    with open(catalog_path, "r", encoding="utf-8") as handle:
        rows = parse_catalog(handle.read())
    catalog = [(_template(name), name, line) for name, line in rows]
    emitted = []
    for module in project.modules:
        for template, node in emitted_templates(module):
            emitted.append((template, module, node))

    findings = []
    catalog_templates = [entry[0] for entry in catalog]
    for template, module, node in emitted:
        if any(_covers(c, template) for c in catalog_templates):
            continue
        findings.append(
            (
                module,
                node,
                "metric `%s` is not in the docs/OBSERVABILITY.md "
                "catalog; add a row (or rename to a cataloged "
                "name)" % template,
            )
        )

    emitted_templates_all = {entry[0] for entry in emitted}
    for template, name, line in catalog:
        if any(
            _covers(e, template) or _covers(template, e)
            for e in emitted_templates_all
        ):
            continue
        findings.append(
            (
                registry,
                registry.tree,
                "catalog row `%s` (docs/OBSERVABILITY.md line "
                "%d) matches no metric referenced in the "
                "analyzed tree; delete the row or restore the "
                "metric" % (name, line),
            )
        )
    return findings
