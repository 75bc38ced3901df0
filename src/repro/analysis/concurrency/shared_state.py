"""The shared-mutable-state inventory.

Walks the call graph from every task root (all categories) and records,
per owner class (family root) and attribute — or per module global —
which roots read it and which write it.  The inventory is keyed on
*written* state only: an attribute no root ever writes cannot be an
interleaving hazard.

Access classification (pure ``ast``):

* ``self.attr`` — owner is the base-most class of the method's family,
  so ``TimeSSD`` and ``BaseSSD`` accesses of the same attribute group
  together (they share one instance).
* ``self.field.attr`` — typed through the call graph's attribute-type
  inference (``self.field = Cls(...)`` anywhere in the family).
* ``<name>.attr`` — parameter/local receivers resolve through the
  :data:`~repro.analysis.concurrency.model.STATE_OWNERS` naming
  conventions (recovery's ``ssd``, the GC's ``self._ssd`` alias).
* module globals — an assignment to a name declared ``global``.

A write is a Store/Del/AugAssign of the attribute, a subscript store
whose base is the attribute, or a builtin container mutator
(``.append``/``.update``/...) called on it.  ``__init__`` bodies are
skipped: construction initializes private state before the object is
published to any other task.

Every written (owner, attr) is joined against the declared
:data:`~repro.analysis.concurrency.model.POLICIES`, which are
class-granular (one row per owner, not per attribute); an attribute
of an unpolicied owner written by two or more *schedulable* roots is
the ``concurrency-unclassified-shared-state`` finding.  Exclusive roots
(recovery) never count toward that writer set.  Policies that match
nothing are themselves flagged (``concurrency-stale-policy``) so the
table cannot rot.
"""

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import dotted
from repro.analysis.concurrency import model
from repro.analysis.concurrency.atomicity import _walk
from repro.analysis.effects import effect_analysis


@dataclass
class StateRecord:
    """One shared attribute: who reads it, who writes it, its policy."""

    owner: str
    attr: str
    readers: set = field(default_factory=set)  # root names
    writers: set = field(default_factory=set)
    #: root name -> (module, line) of the first write site seen
    first_write: dict = field(default_factory=dict)
    policy: object = None  # SharedStatePolicy or None


@dataclass
class Inventory:
    """The full inventory plus which declared policies were exercised."""

    records: list = field(default_factory=list)  # sorted StateRecords
    used_policies: set = field(default_factory=set)  # owner patterns
    #: root name -> sorted list of reached qualnames (for the report)
    reach: dict = field(default_factory=dict)


def _family_root(graph, class_qualname):
    """The base-most in-project ancestor (instance-shape owner)."""
    return graph.mro(class_qualname)[-1]


def owner_of(graph, info, receiver):
    """Owner qualname for an attribute receiver expression, or None.

    The one receiver-resolution convention of the concurrency tier,
    shared by the inventory scan here and the staleness tracking in
    :mod:`.yields`: ``self``/``cls`` resolve to the method's family
    root, ``self.field`` through the call graph's attribute typing, and
    bare parameter/local names through the
    :data:`~repro.analysis.concurrency.model.STATE_OWNERS` conventions.
    """
    if isinstance(receiver, ast.Name):
        if receiver.id in ("self", "cls") and info.is_method:
            return _family_root(graph, info.class_qualname)
        return model.STATE_OWNERS.get(receiver.id)
    chain = dotted(receiver)
    if chain and len(chain) == 2 and chain[0] == "self" and info.is_method:
        types = graph.attr_types_for(info.class_qualname, chain[1])
        if types:
            return _family_root(graph, sorted(types)[0])
        return model.STATE_OWNERS.get(chain[1])
    return None


class _AccessScan(ast.NodeVisitor):
    """Collect (owner, attr, is_write, line) accesses in one function."""

    def __init__(self, graph, info):
        self._graph = graph
        self._info = info
        self._globals = set()
        self.accesses = []  # (owner, attr, is_write, line)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                self._globals.update(node.names)

    def _record(self, receiver, attr, is_write, line):
        owner = owner_of(self._graph, self._info, receiver)
        if owner is not None:
            self.accesses.append((owner, attr, is_write, line))

    # -- visitors --

    def visit_Attribute(self, node):
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        self._record(node.value, node.attr, is_write, node.lineno)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        # self._table[k] = v writes _table even though the inner
        # Attribute load context says "read".
        if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
            node.value, ast.Attribute
        ):
            self._record(
                node.value.value, node.value.attr, True, node.lineno
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        # Targets parse with Store ctx, but visit explicitly so the
        # read-modify-write counts as both a read and a write.
        target = node.target
        if isinstance(target, ast.Attribute):
            self._record(target.value, target.attr, True, node.lineno)
            self._record(target.value, target.attr, False, node.lineno)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            self._record(
                target.value.value, target.value.attr, True, node.lineno
            )
        self.generic_visit(node.value)

    def visit_Call(self, node):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in model.MUTATING_METHOD_NAMES
            and isinstance(func.value, ast.Attribute)
        ):
            self._record(
                func.value.value, func.value.attr, True, func.value.lineno
            )
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in self._globals and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            self.accesses.append(
                (self._info.module.module, node.id, True, node.lineno)
            )
        self.generic_visit(node)


def _scan_function(analysis, qualname):
    info = analysis.graph.functions.get(qualname)
    if info is None or info.node.name == "__init__":
        return []
    scan = _AccessScan(analysis.graph, info)
    scan.visit(info.node)
    return scan.accesses


def build_inventory(project):
    """Build (and cache) the shared-state inventory for a project."""

    def build():
        analysis = effect_analysis(project)
        graph = analysis.graph
        table = {}  # (owner, attr) -> StateRecord
        reach = {}
        for root in model.TASK_ROOTS:
            present = [q for q in root.qualnames if q in graph.functions]
            if not present:
                continue
            parent = _walk(graph, present)
            reach[root.name] = sorted(parent)
            for qualname in parent:
                for owner, attr, is_write, line in _scan_function(
                    analysis, qualname
                ):
                    record = table.setdefault(
                        (owner, attr), StateRecord(owner=owner, attr=attr)
                    )
                    if is_write:
                        record.writers.add(root.name)
                        record.first_write.setdefault(
                            root.name,
                            (graph.functions[qualname].module, line),
                        )
                    else:
                        record.readers.add(root.name)
        inventory = Inventory(reach=reach)
        for key in sorted(table):
            record = table[key]
            if not record.writers:
                continue  # never-written state cannot race
            record.policy = model.policy_for(record.owner)
            if record.policy is not None:
                inventory.used_policies.add(record.policy.owner)
            inventory.records.append(record)
        return inventory

    return project.cached("shared_state_inventory", build)


def stale_sensitive_keys(project):
    """(owner, attr) pairs whose derived locals can go stale at a yield.

    Exactly the written inventory minus the policies that declare
    interleaving-tolerance (:data:`model.STALE_TOLERANT_POLICIES`):
    turnstile state is consistent only *between* atomic sections, so a
    local captured from it before a suspension may describe a world
    that no longer exists after — which is what
    ``concurrency-stale-read-after-yield`` (:mod:`.yields`) checks.
    Unpolicied written state counts as sensitive too; the inventory
    rules decide separately whether it also needs a policy.
    """

    def build():
        keys = set()
        for record in build_inventory(project).records:
            policy = record.policy
            if (
                policy is not None
                and policy.policy in model.STALE_TOLERANT_POLICIES
            ):
                continue
            keys.add((record.owner, record.attr))
        return frozenset(keys)

    return project.cached("stale_sensitive_keys", build)


def _schedulable_names():
    return {root.name for root in model.schedulable_roots()}


def unclassified_findings(project):
    """(module, anchor, message) per unpolicied multi-writer attribute."""
    inventory = build_inventory(project)
    schedulable = _schedulable_names()
    findings = []
    for record in inventory.records:
        contending = sorted(record.writers & schedulable)
        if len(contending) < 2 or record.policy is not None:
            continue
        anchor_root = contending[0]
        module, line = record.first_write[anchor_root]
        findings.append(
            (
                module,
                _Line(line),
                "%s.%s is written by task roots %s with no declared "
                "interleaving policy; add a SharedStatePolicy (or make "
                "one task the owner) before the scheduler lands"
                % (record.owner, record.attr, ", ".join(contending)),
            )
        )
    return findings


def stale_policy_findings(project):
    """Policies that matched nothing: stale entries rot the contract."""
    inventory = build_inventory(project)
    module = _model_module(project)
    if module is None:
        return []
    findings = []
    for owner in sorted({p.owner for p in model.POLICIES}):
        if owner in inventory.used_policies:
            continue
        findings.append(
            (
                module,
                _Line(1),
                "policy for %s matches no inventoried shared state; "
                "delete it or fix its pattern" % owner,
            )
        )
    return findings


def _model_module(project):
    return project.by_module.get("repro.analysis.concurrency.model")


class _Line:
    def __init__(self, line, col=1):
        self.line = line
        self.col = col
