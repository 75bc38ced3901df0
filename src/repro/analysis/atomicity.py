"""Atomic sections and the mutations-last rule (pure ``ast``).

``@atomic_section("reason")`` (:mod:`repro.common.atomic`) marks a
function whose state updates must land together.  Nothing can interrupt
it — a task runs until its own next ``yield`` (DESIGN.md, "Why
interleavings are safe") — except an exception: a section that raises
partway through leaves a half-applied update behind for the next task
to read.  So a section that can raise must keep its mutations last, or
declare ``restores_state=True`` with the reason written next to it
(``concurrency-atomic-raise-after-mutate``).

The annotations are found syntactically (analyzed code is never
imported) over the call graph + effects.  Annotation is opt-in: the
rule checks the functions that carry the decorator and has no opinion
about the ones that do not.
"""

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import dotted
from repro.analysis.effects import (
    MUTATES_FLASH,
    atom_exception,
    effect_analysis,
)

#: Builtin container mutators: a call ``<owner>.attr.<one of these>(...)``
#: is a write to ``attr`` even though the call itself resolves to no
#: project function.
MUTATING_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Bare names that conventionally hold a firmware state object (the GC
#: aliases ``bm = ssd.block_manager``; recovery takes ``ssd`` as a
#: parameter), so a container mutator called on one is a mutation even
#: though the call graph cannot type the name.
STATE_RECEIVER_NAMES = frozenset(
    {
        "ssd",
        "_ssd",
        "bm",
        "block_manager",
        "device",
        "mapping",
        "index",
        "blooms",
        "deltas",
    }
)


@dataclass(frozen=True)
class AtomicSection:
    """What one ``@atomic_section(...)`` use declares."""

    reason: str
    restores_state: bool


def _literal(node, kind):
    """The value of a literal of type ``kind``, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, kind):
        return node.value
    return None


def _parse_section(decorator):
    """The section a decorator declares, or None when it is not a
    well-formed ``@atomic_section(...)``.

    A malformed use (bare decorator, empty or non-literal reason,
    non-literal flag) is skipped rather than reported:
    ``atomic_section`` itself raises ``ValueError`` on it when the
    module is imported, so no test can pass over one."""
    if not isinstance(decorator, ast.Call) or not decorator.args:
        return None
    chain = dotted(decorator.func)
    if not chain or chain[-1] != "atomic_section":
        return None
    reason = (_literal(decorator.args[0], str) or "").strip()
    restores = False
    for keyword in decorator.keywords:
        if keyword.arg == "restores_state":
            restores = _literal(keyword.value, bool)
    if not reason or restores is None:
        return None
    return AtomicSection(reason, restores)


def atomic_index(project):
    """Find (and cache) every ``@atomic_section``: qualname -> section."""

    def build():
        sections = {}
        functions = effect_analysis(project).graph.functions
        for qualname in sorted(functions):
            for decorator in functions[qualname].node.decorator_list:
                section = _parse_section(decorator)
                if section is not None:
                    sections[qualname] = section
        return sections

    return project.cached("atomic_sections", build)


def raise_after_mutate_findings(analysis, sections):
    """``(module, line, message)`` per section without ``restores_state``
    whose body can raise after a mutation has already landed
    (mutations-last discipline)."""
    findings = []
    for qualname in sorted(sections):
        section = sections[qualname]
        if section.restores_state:
            continue
        info = analysis.graph.functions.get(qualname)
        if info is None:
            continue
        mutations = _mutation_sites(analysis, info)
        raises = _raising_sites(analysis, info)
        if not mutations or not raises:
            continue
        loops = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(info.node)
            if isinstance(node, (ast.For, ast.While, ast.AsyncFor))
        ]
        # One finding per raising site: a site that can raise fifteen
        # different exceptions after a mutation is one problem, not
        # fifteen — collapse the escaping exception set into the message.
        sites = {}
        for r_line, raised, via in raises:
            sites.setdefault(r_line, (via, set()))[1].add(raised)
        for r_line in sorted(sites):
            via, raised_set = sites[r_line]
            prior = [m for m in mutations if m[0] < r_line]
            shared_loop = any(
                lo <= r_line <= hi
                and any(lo <= m[0] <= hi and m[0] != r_line for m in mutations)
                for lo, hi in loops
            )
            if not prior and not shared_loop:
                continue
            if prior:
                m_line, m_what = max(prior)
            else:
                m_line, m_what = max(
                    m
                    for m in mutations
                    if m[0] != r_line
                    and any(
                        lo <= r_line <= hi and lo <= m[0] <= hi
                        for lo, hi in loops
                    )
                )
            names = sorted(raised_set)
            shown = ", ".join(names[:2])
            if len(names) > 2:
                shown += " (+%d more)" % (len(names) - 2)
            findings.append(
                (
                    info.module,
                    r_line,
                    "atomic section %s may raise %s%s at line %d after "
                    "%s at line %d%s; keep mutations last or declare "
                    "restores_state=True with the restoring logic"
                    % (
                        qualname,
                        shown,
                        via,
                        r_line,
                        m_what,
                        m_line,
                        " (both inside one loop)" if not prior else "",
                    ),
                )
            )
    return findings


def _mutation_sites(analysis, info):
    """(line, description) for each state mutation in one function body.

    Direct attribute/subscript stores, calls to flash-mutating
    functions, calls to project functions that store attributes
    themselves (one level — their own sections govern deeper), and
    builtin container mutators on attribute receivers."""
    sites = []
    for node in ast.walk(info.node):
        stores = _state_stores(node)
        if stores:
            sites.append((node.lineno, _store_text(stores[0])))
        elif isinstance(node, ast.Delete):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                sites.append((node.lineno, "a del of instance state"))
    mutating = _state_mutators(analysis)
    for node, resolved in analysis.graph.calls.get(info.qualname, ()):
        if any(
            MUTATES_FLASH in analysis.effects.get(q, ()) for q in resolved
        ):
            sites.append((node.lineno, "a flash-mutating call"))
            continue
        if any(q in mutating for q in resolved):
            sites.append((node.lineno, "a state-mutating call"))
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHOD_NAMES
            and not resolved
            and _is_state_receiver(func.value)
        ):
            sites.append((node.lineno, "a container mutation"))
    return sorted(set(sites))


def _state_stores(node):
    """The attribute/subscript targets one assignment statement stores
    to (a bare ``x.attr: int`` annotation stores nothing)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign) or (
        isinstance(node, ast.AnnAssign) and node.value is not None
    ):
        targets = [node.target]
    else:
        return []
    return [
        t for t in targets if isinstance(t, (ast.Attribute, ast.Subscript))
    ]


def _store_text(target):
    chain = dotted(target) if isinstance(target, ast.Attribute) else None
    if chain:
        return "a store to %s" % ".".join(chain)
    return "a store to instance state"


def _is_state_receiver(expr):
    if isinstance(expr, ast.Attribute):
        return True
    return isinstance(expr, ast.Name) and expr.id in STATE_RECEIVER_NAMES


def _state_mutators(analysis):
    """Qualnames whose own body stores to attribute/subscript targets."""

    def build():
        return {
            qualname
            for qualname, info in analysis.graph.functions.items()
            if any(_state_stores(node) for node in ast.walk(info.node))
        }

    return analysis.project.cached("state_mutators", build)


def _raising_sites(analysis, info):
    """(line, exception, via-text) for each escape point in one body.

    Own ``raise`` statements come from the intrinsic table (first site
    per exception type — an accepted approximation); call-mediated
    raises are judged per call site against the try/except guards the
    effects pass recorded there."""
    sites = []
    qualname = info.qualname
    for atom, line in analysis.intrinsic.get(qualname, {}).items():
        raised = atom_exception(atom)
        if raised is not None:
            sites.append((line, raised, ""))
    for callee, absorbed, line in analysis.call_records.get(qualname, ()):
        for atom in sorted(analysis.effects.get(callee, ())):
            raised = atom_exception(atom)
            if raised is None:
                continue
            if raised != "*" and analysis.hierarchy.is_caught_by(
                raised, absorbed
            ):
                continue
            if raised == "*" and absorbed & {
                "builtins.Exception",
                "builtins.BaseException",
            }:
                continue
            sites.append((line, raised, " (via %s)" % callee))
    return sorted(set(sites))
