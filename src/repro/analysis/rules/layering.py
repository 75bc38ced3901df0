"""Layering rules: the DESIGN.md import order and the FTL flash monopoly.

The flash device model must not know about FTLs; substrates must not
reach into the firmware; nothing outside the two FTL packages may
program or erase raw flash pages (the erase-before-write and OOB
back-pointer invariants live entirely inside the FTL — a stray
``device.program_page`` elsewhere bypasses both); and a package's
``_private`` functions are its own.  ``repro.obs`` sits in layer 0, so
the layer order alone keeps the observer below everything it observes.
"""

import ast

from repro.analysis.imports import (
    LAYER_OF,
    LAYER_ORDER,
    module_imports,
    resolve_relative,
    subpackage,
)

#: Only these subpackages may call the raw flash program/erase APIs.
FLASH_WRITERS = frozenset({"flash", "ftl", "timessd"})

#: Flash device / block mutation entry points (see repro.flash.device).
FLASH_API_ATTRS = frozenset({"program_page", "erase_block"})

#: Receivers whose private calls stay inside one class family.
OWN_RECEIVERS = frozenset({"self", "cls", "super()"})


def _layer_name(pkg):
    return "/".join(LAYER_ORDER[LAYER_OF[pkg]])


def layer_order(module, project):
    src = subpackage(module.module)
    if src is None:  # not a repro subpackage (or the exempt root)
        return
    if src not in LAYER_OF:
        yield module.tree, (
            "package repro.%s has no layer assignment; add it to "
            "repro.analysis.imports.LAYER_ORDER" % src
        )
        return
    for name, node in module_imports(module):
        dst = subpackage(name)
        if dst is None or dst == src:
            continue
        if dst not in LAYER_OF:
            yield node, (
                "import of repro.%s, which has no layer assignment in "
                "repro.analysis.imports.LAYER_ORDER" % dst
            )
        elif LAYER_OF[dst] > LAYER_OF[src]:
            yield node, (
                "upward import: repro.%s (layer %d: %s) must not import "
                "repro.%s (layer %d: %s)"
                % (
                    src,
                    LAYER_OF[src],
                    _layer_name(src),
                    dst,
                    LAYER_OF[dst],
                    _layer_name(dst),
                )
            )


def flash_api(module, project):
    src = subpackage(module.module)
    if src is None or src in FLASH_WRITERS:
        return
    for node in module.calls:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in FLASH_API_ATTRS:
            yield node, (
                "%s() is an FTL-only flash API; repro.%s must go through "
                "an SSD's read/write/trim interface" % (func.attr, src)
            )


def import_cycle(module, project):
    """The first import of ``module`` whose target package reaches back
    to the module's own: that edge and the path back are the cycle."""
    src = subpackage(module.module)
    if src is None:
        return
    graph = project.package_graph
    for name, node in module_imports(module):
        dst = subpackage(name)
        if dst is not None and dst != src and src in _reachable(graph, dst):
            yield node, (
                "import of repro.%s completes a package cycle "
                "(%s)" % (dst, " <-> ".join(sorted({src, dst})))
            )
            return


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


def private_definitions(modules):
    """``{_name: {subpackage, ...}}`` — the ``repro`` subpackages that
    ``def`` each private function or method."""
    owners = {}
    for module in modules:
        pkg = subpackage(module.module)
        if pkg is None:
            continue
        for node in module.defs:
            if _is_private(node.name):
                owners.setdefault(node.name, set()).add(pkg)
    return owners


def private_cross_package(module, project):
    src = subpackage(module.module)
    if src is None:
        return
    for node in module.imports:
        if not isinstance(node, ast.ImportFrom):
            continue
        dst = subpackage(resolve_relative(module.module, node.level, node.module))
        names = [a.name for a in node.names if _is_private(a.name)]
        if names and dst not in (None, src):
            yield node, (
                "repro.%s imports private %s from repro.%s; use (or "
                "add) a public API" % (src, ", ".join(names), dst)
            )
    owners = project.private_definitions
    for node in module.calls:
        if not isinstance(node.func, ast.Attribute):
            continue
        defined_in = owners.get(node.func.attr, {src})
        if src in defined_in:
            continue
        if ast.unparse(node.func.value) not in OWN_RECEIVERS:
            yield node, (
                "repro.%s calls private %s, defined only in repro.%s; "
                "use (or add) a public API"
                % (src, node.func.attr, "/".join(sorted(defined_in)))
            )
