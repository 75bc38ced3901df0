"""Effect inference over the whole-program call graph.

Every function gets a set of *effect atoms*:

``mutates-flash``
    Transitively reaches a flash-array mutation primitive
    (``ColumnarFlashArray.program``/``.erase`` or the ``FlashDevice``
    ``program_page``/``erase_block`` wrappers).
``raises:<qualname>``
    May let that exception escape.  ``raises:*`` means "something we
    could not resolve".  ``raise`` sites inside a ``try`` whose handlers
    catch the exception (per the project + builtin exception hierarchy)
    are absorbed, and so are exceptions propagating from a call guarded
    the same way.

Intrinsic atoms are assigned from each function's own AST, then
propagated bottom-up to a fixpoint.  The per-call-site try/except
context recorded during the scan filters ``raises:`` atoms as they
flow upward; ``mutates-flash`` propagates unconditionally.
"""

import ast
import builtins

from repro.analysis.callgraph import (
    ClassInfo,
    build_call_graph,
    dotted,
)

MUTATES_FLASH = "mutates-flash"
RAISES_PREFIX = "raises:"

#: Functions that ARE a flash mutation (the leaves of the effect).
FLASH_MUTATOR_QUALNAMES = frozenset(
    {
        "repro.flash.core.ColumnarFlashArray.program",
        "repro.flash.core.ColumnarFlashArray.erase",
        "repro.flash.device.FlashDevice.program_page",
        "repro.flash.device.FlashDevice.erase_block",
    }
)

#: Attribute names that mean flash mutation even when the receiver could
#: not be typed (mirrors the layering pack's FLASH_API_ATTRS).
FLASH_MUTATOR_ATTRS = frozenset({"program_page", "erase_block"})


def atom_exception(atom):
    """``raises:repro.common.errors.ReproError`` -> the qualname part."""
    if atom.startswith(RAISES_PREFIX):
        return atom[len(RAISES_PREFIX):]
    return None


class ExceptionHierarchy:
    """Subclass queries across project exception classes and builtins.

    Project classes are named by qualname (``repro.common.errors.X``);
    builtins by ``builtins.ValueError``.  ``"*"`` is the unknown
    exception: only ``Exception``/``BaseException`` handlers absorb it.
    """

    def __init__(self, graph):
        self._graph = graph

    def is_caught_by(self, raised, caught_set):
        for caught in caught_set:
            if self._matches(raised, caught):
                return True
        return False

    def _matches(self, raised, caught):
        if caught in ("builtins.Exception", "builtins.BaseException"):
            return True
        if raised == "*":
            return False  # only the blanket handlers above absorb it
        if raised == caught:
            return True
        if raised.startswith("builtins."):
            return self._builtin_subclass(
                raised.split(".", 1)[1], caught
            )
        # Project class: walk the in-project MRO, checking each level's
        # unresolved (builtin) base names as well.
        for qual in self._graph.mro(raised):
            if qual == caught:
                return True
            info = self._graph.classes.get(qual)
            if info is None:
                continue
            for base_chain in info.base_names:
                if not base_chain:
                    continue
                base_name = base_chain[-1]
                if self._builtin_subclass(base_name, caught):
                    return True
        return False

    def _builtin_subclass(self, name, caught):
        if not caught.startswith("builtins."):
            return False
        raised_cls = getattr(builtins, name, None)
        caught_cls = getattr(builtins, caught.split(".", 1)[1], None)
        if not (
            isinstance(raised_cls, type)
            and issubclass(raised_cls, BaseException)
            and isinstance(caught_cls, type)
            and issubclass(caught_cls, BaseException)
        ):
            return False
        return issubclass(raised_cls, caught_cls)


class EffectAnalysis:
    """Intrinsic effect scan + bottom-up fixpoint over the call graph."""

    def __init__(self, project):
        self.project = project
        self.graph = build_call_graph(project)
        self.hierarchy = ExceptionHierarchy(self.graph)
        #: qualname -> {atom: line of the introducing site}
        self.intrinsic = {}
        #: qualname -> [(callee qualname, frozenset absorbed, line)]
        self.call_records = {}
        #: qualname -> final atom set (fixpoint)
        self.effects = {}
        for func in self.graph.functions.values():
            self._scan_function(func)
        self._propagate()

    # --- Intrinsic scan ------------------------------------------------------

    def _scan_function(self, func):
        qual = func.qualname
        self.intrinsic[qual] = {}
        self.call_records[qual] = []
        self._targets_by_node = {
            id(node): targets
            for node, targets in self.graph.calls.get(qual, ())
        }
        for stmt in func.node.body:
            self._visit(func, stmt, guards=(), handler_types=None)

    def _add_intrinsic(self, func, atom, node):
        table = self.intrinsic[func.qualname]
        if atom not in table:
            table[atom] = node.lineno

    def _visit(self, func, node, guards, handler_types):
        if isinstance(node, ast.Try):
            caught = frozenset(self._handler_types(func, node.handlers))
            for child in node.body:
                self._visit(func, child, guards + (caught,), handler_types)
            for handler in node.handlers:
                htypes = frozenset(self._handler_types(func, [handler]))
                for child in handler.body:
                    self._visit(func, child, guards, htypes or handler_types)
            for child in node.orelse:
                self._visit(func, child, guards, handler_types)
            for child in node.finalbody:
                self._visit(func, child, guards, handler_types)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(func, node, guards, handler_types)
            # Still scan the constructor expression for calls.
            for child in ast.iter_child_nodes(node):
                self._visit(func, child, guards, handler_types)
            return
        if isinstance(node, ast.Call):
            self._record_call(func, node, guards)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func.node:
                # A nested def's body runs when *called*; our graph
                # attributes its calls to the enclosing function, so keep
                # walking, but its try-context is its own: reset guards.
                guards = ()
                handler_types = None
        for child in ast.iter_child_nodes(node):
            self._visit(func, child, guards, handler_types)

    def _handler_types(self, func, handlers):
        """Exception qualnames caught by these ``except`` clauses."""
        out = []
        for handler in handlers:
            if handler.type is None:  # bare except catches everything
                out.append("builtins.BaseException")
                continue
            exprs = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for expr in exprs:
                out.append(self._exception_name(func, expr))
        return out

    def _exception_name(self, func, expr):
        """Best-effort qualname for an exception expression, or ``*``."""
        chain = dotted(expr)
        if chain is None:
            return "*"
        found = self.graph.resolve_symbol(func.module.module, chain)
        if isinstance(found, ClassInfo):
            return found.qualname
        if len(chain) == 1 and hasattr(builtins, chain[0]):
            return "builtins.%s" % chain[0]
        return "*"

    def _record_raise(self, func, node, guards, handler_types):
        if node.exc is None:
            # Bare re-raise: raises whatever the enclosing handler caught.
            raised_names = sorted(handler_types) if handler_types else ["*"]
        else:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            raised_names = [self._exception_name(func, target)]
        for raised in raised_names:
            absorbed = any(
                self.hierarchy.is_caught_by(raised, caught)
                for caught in guards
            )
            if absorbed:
                continue
            atom = RAISES_PREFIX + raised
            self._add_intrinsic(func, atom, node)

    def _record_call(self, func, node, guards):
        qual = func.qualname
        targets = self._targets_by_node.get(id(node), ())
        flat_guards = frozenset().union(*guards) if guards else frozenset()
        for callee in targets:
            self.call_records[qual].append((callee, flat_guards, node.lineno))
        # Intrinsic atoms recognisable at the call expression itself.
        callee_expr = node.func
        if isinstance(callee_expr, ast.Attribute):
            if callee_expr.attr in FLASH_MUTATOR_ATTRS and not targets:
                # Untypeable receiver, but the name is the flash API.
                self._add_intrinsic(func, MUTATES_FLASH, node)
        for callee in targets:
            if callee in FLASH_MUTATOR_QUALNAMES:
                self._add_intrinsic(func, MUTATES_FLASH, node)

    # --- Propagation ---------------------------------------------------------

    def _propagate(self):
        effects = {
            qual: set(table) for qual, table in self.intrinsic.items()
        }
        # Flash mutators carry their own atom even if their bodies
        # mutate state directly rather than via a call.
        for qual in FLASH_MUTATOR_QUALNAMES:
            if qual in effects:
                effects[qual].add(MUTATES_FLASH)
        changed = True
        while changed:
            changed = False
            for qual, records in self.call_records.items():
                mine = effects[qual]
                before = len(mine)
                for callee, absorbed, _line in records:
                    theirs = effects.get(callee)
                    if not theirs:
                        continue
                    for atom in theirs:
                        if atom in mine:
                            continue
                        raised = atom_exception(atom)
                        if raised is not None and self.hierarchy.is_caught_by(
                            raised, absorbed
                        ):
                            continue
                        mine.add(atom)
                if len(mine) != before:
                    changed = True
        self.effects = effects


def effect_analysis(project):
    """Build (and cache on the project) the effect analysis."""
    return project.cached("effect_analysis", lambda: EffectAnalysis(project))
