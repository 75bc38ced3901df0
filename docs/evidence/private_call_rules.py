"""Seed one private call per name and ask two lint rules whether they fire.

Evidence for the analyzer's "fourth cut" (docs/ANALYSIS.md): the
name-based ``layering-private-cross-package`` replaced the call-graph
rule ``callgraph-private-cross-package``.  For every distinct ``_private``
function or method name ``def``'d outside ``repro/nvme`` in a tree, this
script seeds one call ``ssd._name(t)`` into ``NVMeController._apply_io``
(the line before ``data, t = ssd.serve_read_at(...)``, where the mutation
ratchet seeds its private-call row) and records whether each rule
reports the seeded line.  Each name is its own mutant; the rest of the
tree is parsed once.

The call-graph rule exists only in checkouts from before its deletion,
so each rule runs in its own interpreter with its own ``src`` first on
``sys.path``::

    git clone <repo> old && git -C old checkout <last commit with --deep>
    python docs/evidence/private_call_rules.py \\
        --old old/src --new src --tree old/src/repro \\
        > docs/evidence/private_call_rules.txt
"""

import argparse
import ast
import json
import os
import subprocess
import sys

OLD_RULE = "callgraph-private-cross-package"
NEW_RULE = "layering-private-cross-package"
ANCHOR = "                data, t = ssd.serve_read_at(command.slba + i, t)\n"
SEED = "                ssd.%s(t)\n"


def private_names(tree):
    """``{name: (packages, kind)}`` for private defs outside ``nvme``;
    ``kind`` is ``method`` when any def sits directly in a class."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(tree):
        dirnames.sort()
        rel = os.path.relpath(dirpath, tree).split(os.sep)
        if rel[0] in (".", "nvme"):
            continue
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename), encoding="utf-8") as fh:
                module = ast.parse(fh.read())
            methods = {
                item
                for node in ast.walk(module)
                if isinstance(node, ast.ClassDef)
                for item in node.body
            }
            for node in ast.walk(module):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if not name.startswith("_") or name.startswith("__"):
                    continue
                packages, kind = found.get(name, (set(), "function"))
                packages.add(rel[0])
                found[name] = (packages, "method" if node in methods else kind)
    return found


def worker(tree, rule_id, names):
    """Print, as JSON, the names whose seeded call ``rule_id`` reports."""
    # ``_check_module`` runs rules over one module under the same name
    # and signature in the analyzers before and after the call graph.
    from repro.analysis.core import (
        Project,
        SourceModule,
        _check_module,
        collect_files,
        rules_by_id,
    )

    (rule,) = rules_by_id([rule_id])
    files = collect_files([tree])
    modules = [SourceModule.from_path(path) for path in files]
    index = files.index(os.path.join(tree, "nvme", "controller.py"))
    original = modules[index]
    assert original.source.count(ANCHOR) == 1, "anchor moved"
    line = original.source[: original.source.index(ANCHOR)].count("\n") + 1

    def fires(module):
        project = Project(modules[:index] + [module] + modules[index + 1:])
        found, _ = _check_module(module, [rule], project)
        return any(v.line == line for v in found)

    assert not fires(original), "the unseeded line already fires"
    fired = []
    for name in names:
        seeded = SourceModule(
            files[index], original.source.replace(ANCHOR, SEED % name + ANCHOR)
        )
        if fires(seeded):
            fired.append(name)
    print(json.dumps(fired))


def run_worker(src, tree, rule_id, names):
    result = subprocess.run(
        [sys.executable, __file__, "--worker", rule_id, "--tree", tree],
        input=json.dumps(names),
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    return set(json.loads(result.stdout))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="the repro/ to seed")
    parser.add_argument("--old", help="src/ whose analyzer has " + OLD_RULE)
    parser.add_argument("--new", help="src/ whose analyzer has " + NEW_RULE)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    tree = os.path.normpath(os.path.abspath(args.tree))
    if args.worker:
        worker(tree, args.worker, json.loads(sys.stdin.read()))
        return 0

    found = private_names(tree)
    names = sorted(found)
    old = run_worker(args.old, tree, OLD_RULE, names)
    new = run_worker(args.new, tree, NEW_RULE, names)
    kinds = {kind: sum(1 for n in names if found[n][1] == kind)
             for kind in ("method", "function")}
    print("Seeded `ssd._name(t)` in NVMeController._apply_io, one mutant per")
    print("private name def'd outside repro.nvme: %d names (%d only as"
          % (len(names), kinds["function"]))
    print("module-level or nested functions, %d as methods)." % kinds["method"])
    print()
    print("%-32s fired on %3d" % (OLD_RULE, len(old)))
    print("%-32s fired on %3d" % (NEW_RULE, len(new)))
    print("%-32s %3d" % ("both", len(old & new)))
    print("%-32s %3d" % ("new rule only", len(new - old)))
    print("%-32s %3d" % ("old rule only (missed by new)", len(old - new)))
    print("%-32s %3d" % ("neither", len(set(names) - old - new)))
    print()
    print("%-34s %-8s %-4s %-4s %s" % ("name", "kind", "old", "new", "def'd in"))
    for name in names:
        packages, kind = found[name]
        print("%-34s %-8s %-4s %-4s %s" % (
            name, kind,
            "yes" if name in old else "-",
            "yes" if name in new else "-",
            ",".join(sorted(packages)),
        ))
    return 1 if old - new else 0


if __name__ == "__main__":
    sys.exit(main())
