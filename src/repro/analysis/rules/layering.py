"""Layering rules: the DESIGN.md import order and the FTL flash monopoly.

The flash device model must not know about FTLs; substrates must not
reach into the firmware; nothing outside the two FTL packages may
program or erase raw flash pages (the erase-before-write and OOB
back-pointer invariants live entirely inside the FTL — a stray
``device.program_page`` elsewhere bypasses both); and a package's
``_private`` functions are its own.
"""

import ast

from repro.analysis.core import LintRule, register
from repro.analysis.imports import (
    LAYER_OF,
    LAYER_ORDER,
    cyclic_packages,
    module_imports,
    package_graph,
    resolve_relative,
    subpackage,
)

#: Only these subpackages may call the raw flash program/erase APIs.
FLASH_WRITERS = frozenset({"flash", "ftl", "timessd"})

#: The only subpackages repro.obs may import: the observer must sit
#: below everything it observes (the observed layers hold a Scope and
#: push into it; obs never reaches up).
OBS_ALLOWED_IMPORTS = frozenset({"common", "obs"})

#: Flash device / block mutation entry points (see repro.flash.device).
FLASH_API_ATTRS = frozenset({"program_page", "erase_block"})


@register
class LayerOrderRule(LintRule):
    rule_id = "layering-order"
    pack = "layering"
    description = (
        "repro packages may import their own layer or below "
        "(common -> flash -> ftl/timessd -> fs/nvme/timekits -> apps)"
    )

    def check(self, module, project):
        src = subpackage(module.module)
        if src is None:  # not a repro subpackage (or the exempt root)
            return
        if src not in LAYER_OF:
            yield self.violation(
                module,
                module.tree,
                "package repro.%s has no layer assignment; add it to "
                "repro.analysis.imports.LAYER_ORDER" % src,
            )
            return
        for imported in module_imports(module):
            dst = subpackage(imported.module)
            if dst is None or dst == src:
                continue
            if dst not in LAYER_OF:
                yield self.violation(
                    module,
                    imported,
                    "import of repro.%s, which has no layer assignment in "
                    "repro.analysis.imports.LAYER_ORDER" % dst,
                )
                continue
            if LAYER_OF[dst] > LAYER_OF[src]:
                yield self.violation(
                    module,
                    imported,
                    "upward import: repro.%s (layer %d: %s) must not import "
                    "repro.%s (layer %d: %s)"
                    % (
                        src,
                        LAYER_OF[src],
                        "/".join(LAYER_ORDER[LAYER_OF[src]]),
                        dst,
                        LAYER_OF[dst],
                        "/".join(LAYER_ORDER[LAYER_OF[dst]]),
                    ),
                )

@register
class FlashApiRule(LintRule):
    rule_id = "layering-flash-api"
    pack = "layering"
    description = (
        "only flash/ftl/timessd may call raw flash program/erase APIs "
        "(program_page, erase_block)"
    )

    def check(self, module, project):
        src = subpackage(module.module)
        if src is None or src in FLASH_WRITERS:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in FLASH_API_ATTRS
            ):
                yield self.violation(
                    module,
                    node,
                    "%s() is an FTL-only flash API; repro.%s must go through "
                    "an SSD's read/write/trim interface" % (func.attr, src),
                )


@register
class ObsIsolationRule(LintRule):
    rule_id = "layering-obs-isolated"
    pack = "layering"
    description = (
        "repro.obs may import only repro.common (and itself): the "
        "observability substrate must never know about flash/FTL layers"
    )

    def check(self, module, project):
        if subpackage(module.module) != "obs":
            return
        for imported in module_imports(module):
            dst = subpackage(imported.module)
            if dst is not None and dst not in OBS_ALLOWED_IMPORTS:
                yield self.violation(
                    module,
                    imported,
                    "repro.obs must stay below every observed layer; it "
                    "cannot import repro.%s — the observed code pushes "
                    "metrics into a Scope instead" % dst,
                )


@register
class ImportCycleRule(LintRule):
    rule_id = "layering-cycle"
    pack = "layering"
    description = "repro subpackages must not form import cycles"

    def check(self, module, project):
        src = subpackage(module.module)
        if src is None:
            return
        cyclic = cyclic_packages(project)
        if src not in cyclic:
            return
        graph = package_graph(project)
        for imported in module_imports(module):
            dst = subpackage(imported.module)
            if (
                dst is not None
                and dst != src
                and dst in cyclic
                and dst in graph.get(src, ())
                and src in _reachable(graph, dst)
            ):
                yield self.violation(
                    module,
                    imported,
                    "import of repro.%s completes a package cycle "
                    "(%s)" % (dst, " <-> ".join(sorted(cyclic & {src, dst}))),
                )
                break


def _reachable(graph, start):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in graph.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


#: Receivers whose private calls stay inside one class family.
OWN_RECEIVERS = frozenset({"self", "cls", "super()"})


def private_definitions(project):
    """``{_name: {subpackage, ...}}`` — the ``repro`` subpackages that
    ``def`` each private function or method; cached on the project."""

    def build():
        owners = {}
        for module in project.modules:
            pkg = subpackage(module.module)
            if pkg is None or module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and _is_private(node.name):
                    owners.setdefault(node.name, set()).add(pkg)
        return owners

    return project.cached("private_definitions", build)


@register
class PrivateCrossPackageRule(LintRule):
    rule_id = "layering-private-cross-package"
    pack = "layering"
    description = (
        "a _private name may only be imported or called from its own "
        "repro subpackage (self/cls/super() calls are exempt)"
    )

    def check(self, module, project):
        src = subpackage(module.module)
        if src is None:
            return
        owners = private_definitions(project)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                dst = subpackage(
                    resolve_relative(module.module, node.level, node.module)
                )
                names = [a.name for a in node.names if _is_private(a.name)]
                if names and dst not in (None, src):
                    yield self.violation(
                        module,
                        node,
                        "repro.%s imports private %s from repro.%s; use (or "
                        "add) a public API" % (src, ", ".join(names), dst),
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                defined_in = owners.get(node.func.attr, {src})
                if src in defined_in:
                    continue
                if ast.unparse(node.func.value) not in OWN_RECEIVERS:
                    yield self.violation(
                        module,
                        node,
                        "repro.%s calls private %s, defined only in repro.%s; "
                        "use (or add) a public API"
                        % (src, node.func.attr, "/".join(sorted(defined_in))),
                    )
