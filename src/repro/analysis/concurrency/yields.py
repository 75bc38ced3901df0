"""Scheduler-aware yield analysis (pure ``ast``).

PR 9 made the device genuinely concurrent: cooperative generator tasks
yield wait instructions (``Delay``/``At``) to a deterministic event
loop, and every yield is a point where *any* other schedulable task may
run.  The atomicity tier (:mod:`.atomicity`) defends the regions
between yields; this module defends the yields themselves, over the
PR 5 call graph:

* **May-yield set** — every function that can suspend the running
  task, seeded from plain ``yield``/``yield from``/``await`` sites and
  non-ambiguous calls to the wait-instruction constructors
  (:data:`~repro.analysis.concurrency.model.SCHEDULER_YIELD_QUALNAMES`),
  then propagated to callers through non-ambiguous call edges — the
  same confident-edge discipline the atomicity rules use.  The set is
  the contract surface (docs/interleaving-contract.md lists it per
  task root); it deliberately over-approximates — under plain
  generators only the task's own yields suspend it, but the table must
  stay correct when a yield point is pushed down a call chain.

* **Staleness across waits** (``concurrency-stale-read-after-yield``)
  — flow-sensitive tracking, per task generator, of locals captured
  from policy-classified shared mutable state (the written inventory of
  :mod:`.shared_state`, minus interleaving-tolerant policies).  Using
  such a local after a yield without re-reading it is the canonical
  interleaving bug: the value describes a world another task may have
  rewritten wholesale.

* **Task-generator protocol** — ``concurrency-bad-yield-value`` (the
  loop rejects non-instruction yields at runtime; the lint rejects
  them statically) and ``concurrency-return-in-daemon`` (a daemon that
  returns silently stops its background service forever).

Only *task* generators are analyzed: generators spawned onto the loop
(first argument of :data:`model.SPAWN_QUALNAMES` calls), generators
that yield wait-instruction constructions, and generators a task
generator delegates to via ``yield from``.  Data generators —
``scan_oob`` yielding pages to a same-task consumer — are exempt by
construction: their yields transfer values, not control of the task.

Control flow is :mod:`repro.analysis.flow`'s; the one approximation
added here is that statements are processed atomically (uses inside a
statement that also yields are checked against the pre-yield state).
"""

import ast
from dataclasses import dataclass, field, replace

from repro.analysis.callgraph import dotted
from repro.analysis.concurrency import model
from repro.analysis.concurrency.atomicity import _line_anchor, shallow_walk
from repro.analysis.concurrency.shared_state import (
    build_inventory,
    owner_of,
    stale_sensitive_keys,
)
from repro.analysis.effects import effect_analysis
from repro.analysis.flow import FlowWalker


# --- The analysis object ------------------------------------------------------


@dataclass
class YieldAnalysis:
    """Everything the yield rules and the contract report consume."""

    graph: object
    #: qualname -> [(node, kind)] own suspension sites, source order;
    #: kind is ``yield`` | ``yield from`` | ``await`` | ``wait-construct``.
    own_sites: dict = field(default_factory=dict)
    #: qualname -> one-line reason it is in the transitive may-yield set.
    may_yield: dict = field(default_factory=dict)
    #: qualname -> one-line reason it is a *task* generator.
    task_generators: dict = field(default_factory=dict)
    #: task generators spawned with ``daemon=True``.
    daemons: frozenset = frozenset()
    #: qualname -> {id(ast.Call): (resolved target qualnames,)}.
    resolved: dict = field(default_factory=dict)


def _is_wait_call(graph, caller, resolved_map, node):
    """Whether a call (non-ambiguously) constructs a wait instruction."""
    return any(
        target in model.SCHEDULER_YIELD_QUALNAMES
        and (caller, target) not in graph.ambiguous_edges
        for target in resolved_map.get(id(node), ())
    )


def _spawn_keyword(node, name):
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _collect_own_sites(graph, qualname, info, resolved_map):
    sites = []
    for node in shallow_walk(info.node):
        if isinstance(node, ast.Yield):
            sites.append((node, "yield"))
        elif isinstance(node, ast.YieldFrom):
            sites.append((node, "yield from"))
        elif isinstance(node, ast.Await):
            sites.append((node, "await"))
        elif isinstance(node, ast.Call):
            if _is_wait_call(graph, qualname, resolved_map, node):
                sites.append((node, "wait-construct"))
    sites.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return sites


def yield_analysis(project):
    """Build (and cache) the yield analysis for a project."""

    def build():
        analysis = effect_analysis(project)
        graph = analysis.graph
        out = YieldAnalysis(graph=graph)
        for qualname, info in graph.functions.items():
            resolved_map = {
                id(node): tuple(targets)
                for node, targets in graph.calls.get(qualname, ())
            }
            out.resolved[qualname] = resolved_map
            sites = _collect_own_sites(graph, qualname, info, resolved_map)
            if sites:
                out.own_sites[qualname] = sites

        # Transitive may-yield: seed with own sites, propagate to
        # callers through non-ambiguous edges only (a dynamic-dispatch
        # guess that a function suspends belongs in the unresolved
        # report, not in the contract).
        for qualname in sorted(out.own_sites):
            node, kind = out.own_sites[qualname][0]
            out.may_yield[qualname] = "own %s at line %d" % (
                kind, node.lineno
            )
        callers_of = {}
        for caller, callees in graph.edges.items():
            for callee in callees:
                if (caller, callee) in graph.ambiguous_edges:
                    continue
                callers_of.setdefault(callee, []).append(caller)
        frontier = sorted(out.may_yield)
        while frontier:
            fresh = []
            for callee in frontier:
                for caller in sorted(callers_of.get(callee, ())):
                    if caller not in out.may_yield:
                        out.may_yield[caller] = "calls %s" % callee
                        fresh.append(caller)
            frontier = sorted(fresh)

        # Task generators: (1) spawned onto the loop; (2) yielding
        # wait-instruction constructions; (3) delegated to via
        # ``yield from`` by another task generator (closure).
        daemons = set()
        for caller in sorted(graph.functions):
            resolved_map = out.resolved[caller]
            for node, targets in graph.calls.get(caller, ()):
                if not any(q in model.SPAWN_QUALNAMES for q in targets):
                    continue
                arg = (
                    node.args[0]
                    if node.args
                    else _spawn_keyword(node, "gen")
                )
                if not isinstance(arg, ast.Call):
                    continue
                for target in resolved_map.get(id(arg), ()):
                    if target not in graph.functions:
                        continue
                    out.task_generators.setdefault(
                        target, "spawned as a task by %s" % caller
                    )
                    flag = _spawn_keyword(node, "daemon")
                    if (
                        isinstance(flag, ast.Constant)
                        and flag.value is True
                    ):
                        daemons.add(target)
        for qualname in sorted(out.own_sites):
            if qualname in out.task_generators:
                continue
            for node, kind in out.own_sites[qualname]:
                if kind != "yield" or not isinstance(node.value, ast.Call):
                    continue
                if _is_wait_call(
                    graph, qualname, out.resolved[qualname], node.value
                ):
                    out.task_generators[qualname] = (
                        "yields wait instructions"
                    )
                    break
        changed = True
        while changed:
            changed = False
            for qualname in sorted(out.task_generators):
                for node, kind in out.own_sites.get(qualname, ()):
                    if kind != "yield from" or not isinstance(
                        node.value, ast.Call
                    ):
                        continue
                    for target in out.resolved[qualname].get(
                        id(node.value), ()
                    ):
                        if (
                            target in graph.functions
                            and target not in out.task_generators
                        ):
                            out.task_generators[target] = (
                                "delegated to by %s" % qualname
                            )
                            changed = True
        out.daemons = frozenset(daemons)
        return out

    return project.cached("yield_analysis", build)


# --- Per-task-generator scan --------------------------------------------------


@dataclass(frozen=True)
class _Taint:
    """One local derived from staleness-sensitive shared state."""

    owner: str
    attr: str
    line: int  # capture site
    stale_line: object = None  # yield line that staled it, or None


class _Taints(dict):
    """Local name -> :class:`_Taint` at one program point."""

    def copy(self):
        return _Taints(self)

    def join(self, other):
        """May-semantics: a taint on either path survives, stale wins."""
        out = _Taints(self)
        for name, taint in other.items():
            mine = out.get(name)
            if mine is None or (
                mine.stale_line is None and taint.stale_line is not None
            ):
                out[name] = taint
        return out


class _TaskScan(FlowWalker):
    """Staleness over one task generator's body."""

    def __init__(self, graph, info, sensitive):
        self.graph = graph
        self.info = info
        self.sensitive = sensitive
        self.stale = set()  # (line, col, message); loops are walked twice

    def _sensitive_loads(self, expr):
        out = []
        for node in shallow_walk(expr):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                owner = owner_of(self.graph, self.info, node.value)
                if owner is not None and (owner, node.attr) in self.sensitive:
                    out.append((owner, node.attr, node.lineno))
        return sorted(out)

    # -- FlowWalker transfer functions --

    def expr(self, node, state):
        """Stale-use check, then the yields, for one node."""
        self._check_uses(node, state)
        yield_lines = [
            inner.lineno
            for inner in shallow_walk(node)
            if isinstance(inner, (ast.Yield, ast.YieldFrom, ast.Await))
        ]
        if yield_lines:
            self._mark_stale(state, min(yield_lines))

    def bind(self, target, state, source):
        loads = self._sensitive_loads(source) if source is not None else []
        self._assign_targets([target], loads, state)

    def returns(self, stmt, state):
        if stmt.value is not None:
            self.expr(stmt.value, state)

    def simple(self, stmt, state):
        self.expr(stmt, state)
        if isinstance(stmt, ast.Assign):
            self._assign_targets(
                stmt.targets, self._sensitive_loads(stmt.value), state,
                alias=stmt.value,
            )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_targets(
                [stmt.target], self._sensitive_loads(stmt.value), state,
                alias=stmt.value,
            )
        elif isinstance(stmt, ast.AugAssign):
            loads = self._sensitive_loads(stmt.value)
            if loads and isinstance(stmt.target, ast.Name):
                self._assign_targets([stmt.target], loads, state)
        elif isinstance(stmt, ast.Delete):
            self._assign_targets(stmt.targets, [], state)

    def _check_uses(self, node, state):
        for inner in shallow_walk(node):
            if not isinstance(inner, ast.Name):
                continue
            if not isinstance(inner.ctx, ast.Load):
                continue
            taint = state.get(inner.id)
            if taint is None or taint.stale_line is None:
                continue
            self.stale.add(
                (
                    inner.lineno,
                    inner.col_offset + 1,
                    "local '%s' (read from %s.%s at line %d) is used "
                    "after the task may have been suspended at line "
                    "%d; re-read it after the wait, or suppress with a "
                    "written reason"
                    % (
                        inner.id,
                        taint.owner,
                        taint.attr,
                        taint.line,
                        taint.stale_line,
                    ),
                )
            )
            del state[inner.id]  # one finding per staleness episode

    def _mark_stale(self, state, line):
        for name, taint in state.items():
            if taint.stale_line is None:
                state[name] = replace(taint, stale_line=line)

    # -- assignments --

    def _target_names(self, target):
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names = []
            for elt in target.elts:
                names.extend(self._target_names(elt))
            return names
        if isinstance(target, ast.Starred):
            return self._target_names(target.value)
        return []

    def _assign_targets(self, targets, loads, state, alias=None):
        for target in targets:
            names = self._target_names(target)
            for name in names:
                if loads:
                    state[name] = _Taint(*loads[0])
                elif (
                    isinstance(alias, ast.Name)
                    and alias.id in state
                    and len(names) == 1
                ):
                    state[name] = state[alias.id]
                else:
                    state.pop(name, None)


# --- Rule engines -------------------------------------------------------------


def stale_read_findings(project):
    """Scan every task generator for locals used stale across a wait."""
    yanal = yield_analysis(project)
    sensitive = stale_sensitive_keys(project)
    findings = []
    for qualname in sorted(yanal.task_generators):
        info = yanal.graph.functions.get(qualname)
        if info is None:
            continue
        scan = _TaskScan(yanal.graph, info, sensitive)
        scan.walk(info.node.body, _Taints())
        for line, col, message in sorted(scan.stale):
            findings.append((info.module, _line_anchor(line, col), message))
    return findings


def bad_yield_findings(project):
    """Yields of non-instruction values inside task generators."""
    yanal = yield_analysis(project)
    graph = yanal.graph
    findings = []
    for qualname in sorted(yanal.task_generators):
        info = graph.functions.get(qualname)
        if info is None:
            continue
        aliases = set()
        for node in shallow_walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if not _is_wait_call(
                graph, qualname, yanal.resolved[qualname], node.value
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
        for node, kind in yanal.own_sites.get(qualname, ()):
            if kind == "yield":
                value = node.value
                if value is None:
                    findings.append(
                        (
                            info.module,
                            node,
                            "bare `yield` in task generator %s; the "
                            "loop rejects non-instruction values with "
                            "SchedulerError — yield a wait instruction "
                            "(Delay/At)" % qualname,
                        )
                    )
                    continue
                if isinstance(value, ast.Call) and _is_wait_call(
                    graph, qualname, yanal.resolved[qualname], value
                ):
                    continue
                if isinstance(value, ast.Name) and value.id in aliases:
                    continue
                findings.append(
                    (
                        info.module,
                        node,
                        "task generator %s yields %s, which is not a "
                        "wait instruction; the loop rejects it with "
                        "SchedulerError at runtime"
                        % (qualname, _describe_value(value)),
                    )
                )
            elif kind == "yield from":
                value = node.value
                targets = (
                    yanal.resolved[qualname].get(id(value), ())
                    if isinstance(value, ast.Call)
                    else ()
                )
                if any(t in yanal.task_generators for t in targets):
                    continue
                findings.append(
                    (
                        info.module,
                        node,
                        "`yield from` in task generator %s delegates "
                        "to %s, which the analysis cannot identify as "
                        "a task generator; delegate only to generators "
                        "that yield wait instructions"
                        % (qualname, _describe_value(value)),
                    )
                )
    return findings


def _describe_value(value):
    chain = dotted(value)
    if chain:
        return "`%s`" % ".".join(chain)
    if isinstance(value, ast.Call):
        chain = dotted(value.func)
        if chain:
            return "`%s(...)`" % ".".join(chain)
        return "a call result"
    if isinstance(value, ast.Constant):
        return repr(value.value)
    return "a %s value" % type(value).__name__.lower()


def return_in_daemon_findings(project):
    """``return`` statements inside daemon task generators."""
    yanal = yield_analysis(project)
    graph = yanal.graph
    findings = []
    for qualname in sorted(yanal.daemons):
        info = graph.functions.get(qualname)
        if info is None:
            continue
        for node in shallow_walk(info.node):
            if isinstance(node, ast.Return):
                findings.append(
                    (
                        info.module,
                        node,
                        "daemon task generator %s returns; a daemon "
                        "that finishes stops its background service "
                        "silently — loop forever, or spawn it as a "
                        "non-daemon task" % qualname,
                    )
                )
    return findings


# --- Contract-report helpers --------------------------------------------------


def site_summary(sites):
    """Deterministic one-cell summary of a function's own yield sites."""
    by_kind = {}
    for node, kind in sites:
        by_kind.setdefault(kind, []).append(node.lineno)
    parts = []
    for kind in sorted(by_kind):
        lines = sorted(set(by_kind[kind]))
        shown = ", ".join(str(line) for line in lines[:4])
        if len(lines) > 4:
            shown += ", +%d more" % (len(lines) - 4)
        parts.append(
            "%s (line%s %s)"
            % (kind, "s" if len(lines) > 1 else "", shown)
        )
    return "; ".join(parts)


def root_yield_points(project):
    """Per schedulable root: the may-yield functions in its reach.

    Returns ``{root name: (own, transitive)}`` where ``own`` is a
    sorted list of ``(qualname, summary)`` for reached functions with
    their own suspension sites and ``transitive`` is the sorted list of
    reached functions that may suspend only through callees.
    """
    yanal = yield_analysis(project)
    inventory = build_inventory(project)
    out = {}
    for root in model.schedulable_roots():
        reach = inventory.reach.get(root.name)
        if reach is None:
            continue
        own = []
        transitive = []
        for qualname in reach:
            if qualname in yanal.own_sites:
                own.append(
                    (qualname, site_summary(yanal.own_sites[qualname]))
                )
            elif qualname in yanal.may_yield:
                transitive.append(qualname)
        out[root.name] = (own, transitive)
    return out
