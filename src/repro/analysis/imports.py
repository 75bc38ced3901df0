"""Import extraction, name chains and the DESIGN.md layer map.

The simulator is layered (DESIGN.md): each package may import its own
layer or below, never above.  ``repro/__init__.py`` and
``repro/__main__.py`` are the wiring that re-exports everything, so the
package root is exempt.

    layer 0   common, obs                 (clock, units, errors, stats, metrics)
    layer 1   flash                       (NAND device model)
    layer 2   ftl, timessd                (the two FTLs)
    layer 3   fs, nvme, sched, timekits   (host-visible substrates, event loop)
    layer 4   workloads, security, casestudies, bench, cli, analysis, faults

A ``repro.*`` package missing from this map is itself a violation —
new top-level packages must be placed in a layer explicitly.
"""

import ast

ROOT_PACKAGE = "repro"

LAYER_ORDER = (
    ("common", "obs"),
    ("flash",),
    ("ftl", "timessd"),
    ("fs", "nvme", "sched", "timekits"),
    ("workloads", "security", "casestudies", "bench", "cli", "analysis", "faults"),
)

LAYER_OF = {
    pkg: depth for depth, pkgs in enumerate(LAYER_ORDER) for pkg in pkgs
}


def subpackage(module_name):
    """``repro.flash.page`` -> ``flash``; the package root -> ``None``."""
    if module_name is None:
        return None
    parts = module_name.split(".")
    if parts[0] != ROOT_PACKAGE or len(parts) < 2:
        return None
    sub = parts[1]
    if sub == "__main__":
        return None
    return sub


def dotted(node):
    """``a.b.c`` attribute chain as a list of names, or ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def resolve_relative(module_name, level, target):
    """Resolve ``from ..x import y`` to an absolute dotted module name."""
    if level == 0:
        return target
    if module_name is None:
        return None
    base = module_name.split(".")
    # level 1 = the current package; a plain module drops its own name.
    if len(base) < level:
        return None
    base = base[: len(base) - level]
    if target:
        base.extend(target.split("."))
    return ".".join(base) if base else None


def module_imports(module):
    """``(imported module name, import node)`` per module ``module``
    imports, read from its import bucket."""
    found = []
    for node in module.imports:
        if isinstance(node, ast.Import):
            found.extend((alias.name, node) for alias in node.names)
        else:
            target = resolve_relative(
                module.module, node.level, node.module or ""
            )
            if target:
                found.append((target, node))
    return found


def package_graph(modules):
    """Directed ``repro`` subpackage graph: edges importer -> imported.

    Returns ``{subpackage: {imported_subpackage, ...}}`` with self-edges
    removed.
    """
    graph = {}
    for module in modules:
        src = subpackage(module.module)
        if src is None:
            continue
        edges = graph.setdefault(src, set())
        for name, _ in module_imports(module):
            dst = subpackage(name)
            if dst is not None and dst != src:
                edges.add(dst)
                graph.setdefault(dst, set())
    return graph
