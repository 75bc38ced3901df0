"""Atomic-section detection and the atomicity rules (pure ``ast``).

``@atomic_section("reason")`` (:mod:`repro.common.atomic`) marks a
function as one indivisible step with respect to task interleaving.
This module finds the annotations syntactically (analyzed code is never
imported) and checks four things over the PR 5 call graph + effects:

* **Enclosure** — every flash-mutating call site reachable from a
  schedulable task root sits inside some atomic section
  (``concurrency-unannotated-flash-mutator``).
* **Re-entrancy** — no call out of an atomic section can reach a
  competing schedulable task root, e.g. GC firing from inside a mapping
  update (``concurrency-reentrant-atomic``).  Only confident call edges
  count, mirroring the CallerContract precedent: a dynamic-dispatch
  guess already lives in the unresolved report.
* **Yield-freedom** — no ``await``/``async for``/``async with``/
  scheduler-yield call inside a section or anything it calls
  (``concurrency-yield-in-atomic``); the PR 7 refactor fails loud here,
  not subtle.
* **Exception consistency** — a section that can raise partway through
  must keep its mutations last, or declare ``restores_state=True`` with
  a written reason (``concurrency-atomic-raise-after-mutate``).
"""

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import dotted
from repro.analysis.effects import (
    MUTATES_FLASH,
    atom_exception,
    effect_analysis,
)
from repro.analysis.concurrency.model import (
    MUTATING_METHOD_NAMES,
    SCHEDULER_YIELD_QUALNAMES,
    STATE_OWNERS,
    schedulable_roots,
)
from repro.analysis.imports import subpackage


@dataclass(frozen=True)
class AtomicSection:
    """One ``@atomic_section``-decorated function."""

    qualname: str
    reason: str
    restores_state: bool
    line: int  # decorator line (the annotation site)


@dataclass
class AtomicIndex:
    """All sections in a project plus malformed decorator uses."""

    sections: dict = field(default_factory=dict)  # qualname -> AtomicSection
    #: (module, anchor-node, message) for decorator misuse
    malformed: list = field(default_factory=list)

    def __contains__(self, qualname):
        return qualname in self.sections


def _decorator_is_atomic(decorator):
    """The expression (called or bare) naming ``atomic_section``, or None."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    chain = dotted(target)
    if chain and chain[-1] == "atomic_section":
        return target
    return None


def _parse_section(func, decorator, index):
    """Validate one ``@atomic_section(...)`` use and record it."""
    if not isinstance(decorator, ast.Call):
        index.malformed.append(
            (
                func.module,
                decorator,
                "%s: @atomic_section must be called with a reason string"
                % func.qualname,
            )
        )
        return
    reason = None
    if decorator.args:
        first = decorator.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            reason = first.value.strip() or None
    if reason is None:
        index.malformed.append(
            (
                func.module,
                decorator,
                "%s: @atomic_section needs a non-empty literal reason "
                "string as its first argument" % func.qualname,
            )
        )
        return
    restores = False
    for keyword in decorator.keywords:
        if keyword.arg != "restores_state":
            continue
        if isinstance(keyword.value, ast.Constant) and isinstance(
            keyword.value.value, bool
        ):
            restores = keyword.value.value
        else:
            index.malformed.append(
                (
                    func.module,
                    decorator,
                    "%s: restores_state must be a literal bool"
                    % func.qualname,
                )
            )
            return
    index.sections[func.qualname] = AtomicSection(
        qualname=func.qualname,
        reason=reason,
        restores_state=restores,
        line=decorator.lineno,
    )


def atomic_index(project):
    """Find (and cache) every ``@atomic_section`` in the project."""

    def build():
        analysis = effect_analysis(project)
        index = AtomicIndex()
        for qualname in sorted(analysis.graph.functions):
            func = analysis.graph.functions[qualname]
            for decorator in func.node.decorator_list:
                if _decorator_is_atomic(decorator) is not None:
                    _parse_section(func, decorator, index)
        return index

    return project.cached("atomic_sections", build)


# --- Reachability ------------------------------------------------------------


def _walk(graph, starts, stop_at=frozenset(), confident_only=False):
    """BFS parent map over call edges from ``starts``.

    Never descends *out of* a qualname in ``stop_at`` (the node itself
    is still visited).  Returns ``{qualname: parent-or-None}`` in visit
    order, so chains reconstruct via the parent links.

    Ambiguous dunder edges are always skipped: ``super().__init__()``
    resolves through the dynamic-dispatch fallback to *every* class's
    ``__init__``, which would teleport the walk across unrelated
    subsystems.  Named-method ambiguity (two SSD flavours defining
    ``relocate_block``) is kept — that over-approximation is the point.
    """
    parent = {}
    order = []
    for start in starts:
        if start in parent:
            continue
        parent[start] = None
        order.append(start)
    index = 0
    while index < len(order):
        current = order[index]
        index += 1
        if current in stop_at and parent[current] is not None:
            continue  # atomic interior: the section owns what is inside
        for callee in sorted(graph.edges.get(current, ())):
            if callee in parent:
                continue
            if (current, callee) in graph.ambiguous_edges:
                if confident_only or _is_dunder(callee):
                    continue
            parent[callee] = current
            order.append(callee)
    return parent


def _is_dunder(qualname):
    short = qualname.rsplit(".", 1)[-1]
    return short.startswith("__") and short.endswith("__")


def shallow_walk(node):
    """``ast.walk`` that does not descend into nested scopes.

    A ``yield`` inside a nested ``def`` belongs to the nested function,
    not the enclosing one — ``ast.walk`` would conflate them and mark a
    factory that *builds* a generator as being one itself.  The root
    node is yielded even when it is itself a function definition.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                continue
            stack.append(child)


def _chain(parent, qualname):
    chain = []
    walk = qualname
    while walk is not None:
        chain.append(walk)
        walk = parent[walk]
    return list(reversed(chain))


def _chain_text(chain):
    return " -> ".join(part.rsplit(".", 2)[-1] for part in chain)


def _present_roots(graph):
    """Schedulable roots whose entry functions exist in this project."""
    out = []
    for root in schedulable_roots():
        present = tuple(q for q in root.qualnames if q in graph.functions)
        if present:
            out.append((root, present))
    return out


# --- Rule engines ------------------------------------------------------------


def unannotated_mutator_findings(analysis, index):
    """Flash mutations reachable from a schedulable root outside any
    atomic section.  Anchored at the mutating call site; the flash
    subpackage itself (the media model below the contract) is exempt —
    its *callers* carry the intrinsic atom and are the ones judged."""
    graph = analysis.graph
    findings = []
    seen = set()
    atomic = frozenset(index.sections)
    for root, entries in _present_roots(graph):
        starts = [q for q in entries if q not in atomic]
        if not starts:
            continue
        parent = _walk(graph, starts, stop_at=atomic)
        for qualname in parent:
            if qualname in atomic:
                continue
            if MUTATES_FLASH not in analysis.intrinsic.get(qualname, {}):
                continue
            if subpackage(qualname) == "flash":
                continue
            site = analysis.intrinsic_site(qualname, MUTATES_FLASH)
            key = (qualname, root.name)
            if key in seen:
                continue
            seen.add(key)
            info = graph.functions[qualname]
            findings.append(
                (
                    info.module,
                    _line_anchor(site[1] if site else info.node.lineno),
                    "flash mutation in %s is reachable from task root "
                    "'%s' (%s) outside any @atomic_section; wrap the "
                    "invariant-restoring sequence in one"
                    % (
                        qualname,
                        root.name,
                        _chain_text(_chain(parent, qualname)),
                    ),
                )
            )
    return findings


def reentrancy_findings(analysis, index):
    """Atomic sections from which a competing schedulable task root is
    reachable (confident edges only)."""
    graph = analysis.graph
    root_of = {}
    for root, entries in _present_roots(graph):
        for qualname in entries:
            root_of[qualname] = root
    findings = []
    for qualname in sorted(index.sections):
        if qualname not in graph.functions:
            continue
        parent = _walk(graph, [qualname], confident_only=True)
        for reached in parent:
            if reached == qualname or reached not in root_of:
                continue
            info = graph.functions[qualname]
            findings.append(
                (
                    info.module,
                    _line_anchor(info.node.lineno),
                    "atomic section %s can re-enter task root '%s' via "
                    "%s; a competing task must never start from inside "
                    "an atomic step"
                    % (
                        qualname,
                        root_of[reached].name,
                        _chain_text(_chain(parent, reached)),
                    ),
                )
            )
    return findings


def yield_findings(analysis, index, task_generators=frozenset()):
    """``await``/scheduler-yield sites inside atomic regions.

    The region of a section is the section plus everything confidently
    reachable from it; a yield anywhere in the region suspends the task
    mid-invariant.  ``task_generators`` (from the yield analysis) adds
    plain ``yield``/``yield from`` statements of scheduler task
    generators to the site set — a data generator's yields hand values
    to a same-task consumer and stay exempt."""
    graph = analysis.graph
    atomic = sorted(index.sections)
    if not atomic:
        return []
    owners = {}  # (module, line, col, message-core) -> set of section names
    for section in atomic:
        if section not in graph.functions:
            continue
        parent = _walk(graph, [section], confident_only=True)
        for qualname in parent:
            info = graph.functions.get(qualname)
            if info is None:
                continue
            for node, core in _yield_sites(graph, info, task_generators):
                key = (info.module, node.lineno, node.col_offset, core)
                owners.setdefault(key, (node, set()))[1].add(section)
    findings = []
    for (module, _line, _col, core), (node, sections) in sorted(
        owners.items(), key=lambda item: (item[0][0].path, item[0][1:])
    ):
        findings.append(
            (
                module,
                node,
                "%s inside atomic section%s %s; a task must not be "
                "suspended mid-invariant"
                % (
                    core,
                    "s" if len(sections) > 1 else "",
                    ", ".join(sorted(sections)),
                ),
            )
        )
    return findings


def _yield_sites(graph, info, task_generators=frozenset()):
    """(node, description) for each suspension point in one function."""
    sites = []
    if isinstance(info.node, ast.AsyncFunctionDef):
        sites.append((info.node, "async def %s" % info.qualname))
    is_task_generator = info.qualname in task_generators
    for node in shallow_walk(info.node):
        if isinstance(node, ast.Await):
            sites.append((node, "await in %s" % info.qualname))
        elif isinstance(node, (ast.AsyncFor, ast.AsyncWith)):
            kind = "async for" if isinstance(node, ast.AsyncFor) else (
                "async with"
            )
            sites.append((node, "%s in %s" % (kind, info.qualname)))
        elif is_task_generator and isinstance(
            node, (ast.Yield, ast.YieldFrom)
        ):
            sites.append(
                (node, "task-generator yield in %s" % info.qualname)
            )
    if SCHEDULER_YIELD_QUALNAMES:
        # Confident edges only, mirroring the re-entrancy rule: every
        # ``__init__`` in the project resolves from an ambiguous
        # ``super().__init__()`` guess, and a guess that a section
        # constructs a wait instruction belongs in the unresolved
        # report, not here.
        for node, resolved in graph.calls.get(info.qualname, ()):
            if any(
                q in SCHEDULER_YIELD_QUALNAMES
                and (info.qualname, q) not in graph.ambiguous_edges
                for q in resolved
            ):
                sites.append(
                    (node, "scheduler yield in %s" % info.qualname)
                )
    return sites


def raise_after_mutate_findings(analysis, index):
    """Sections without ``restores_state`` whose body can raise after a
    mutation has already landed (mutations-last discipline)."""
    findings = []
    for qualname in sorted(index.sections):
        section = index.sections[qualname]
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
                    _line_anchor(r_line),
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


class _line_anchor:
    """A bare-line anchor for ``LintRule.violation``."""

    def __init__(self, line, col=1):
        self.line = line
        self.col = col


def _mutation_sites(analysis, info):
    """(line, description) for each state mutation in one function body.

    Direct attribute/subscript stores, calls to flash-mutating
    functions, calls to project functions that store attributes
    themselves (one level — their own sections govern deeper), and
    builtin container mutators on attribute receivers."""
    sites = []
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    sites.append((node.lineno, _store_text(target)))
                    break
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


def _store_text(target):
    chain = dotted(target) if isinstance(target, ast.Attribute) else None
    if chain:
        return "a store to %s" % ".".join(chain)
    return "a store to instance state"


def _is_state_receiver(expr):
    if isinstance(expr, ast.Attribute):
        return True
    return isinstance(expr, ast.Name) and expr.id in STATE_OWNERS


def _state_mutators(analysis):
    """Qualnames whose own body stores to attribute/subscript targets."""

    def build():
        out = set()
        for qualname, info in analysis.graph.functions.items():
            for node in ast.walk(info.node):
                if isinstance(
                    node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                ):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in targets
                    ):
                        out.add(qualname)
                        break
        return out

    return analysis.project.cached("state_mutators", build)


def _raising_sites(analysis, info):
    """(line, exception, via-text) for each escape point in one body.

    Own ``raise`` statements come from the intrinsic table (first site
    per exception type — an accepted approximation); call-mediated
    raises are judged per call site against the try/except guards the
    effects pass recorded there."""
    sites = []
    qualname = info.qualname
    for atom, (path, line) in analysis.intrinsic.get(qualname, {}).items():
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
