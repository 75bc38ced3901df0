"""Import extraction and the DESIGN.md layer map.

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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ImportedName:
    """One imported module reference with its source location."""

    module: str
    line: int
    col: int


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
    """Every module imported by ``module``, as :class:`ImportedName`."""
    if module.tree is None:
        return []
    found = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append(
                    ImportedName(alias.name, node.lineno, node.col_offset + 1)
                )
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(
                module.module, node.level, node.module or ""
            )
            if target:
                found.append(
                    ImportedName(target, node.lineno, node.col_offset + 1)
                )
    return found


def package_graph(project):
    """Directed ``repro`` subpackage graph: edges importer -> imported.

    Returns ``{subpackage: {imported_subpackage, ...}}`` with self-edges
    removed; cached on the project.
    """

    def build():
        graph = {}
        for module in project.modules:
            src = subpackage(module.module)
            if src is None:
                continue
            edges = graph.setdefault(src, set())
            for imported in module_imports(module):
                dst = subpackage(imported.module)
                if dst is not None and dst != src:
                    edges.add(dst)
                    graph.setdefault(dst, set())
        return graph

    return project.cached("package_graph", build)


def cyclic_packages(project):
    """Subpackages on an import cycle (members of any SCC of size > 1)."""

    def build():
        graph = package_graph(project)
        index = {}
        lowlink = {}
        on_stack = set()
        stack = []
        cyclic = set()
        counter = [0]

        def strongconnect(node):
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph.get(node, ())):
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cyclic.update(component)

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return cyclic

    return project.cached("cyclic_packages", build)
