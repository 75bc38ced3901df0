"""Whole-program call graph over the ``repro`` tree (pure ``ast``).

The deep rules (``callgraph-private-cross-package`` and, through
:mod:`repro.analysis.effects`, the atomic-section raise inference) need
to know *who calls whom* across the entire simulator, not just within
one file.  Python makes a fully precise answer undecidable, so this
builder implements name/attribute resolution that is good enough for
this repo's idiom — and is honest about the rest: every call it cannot
(or will not) resolve lands in an explicit unresolved-call report
instead of silently vanishing.

Resolution strategy, in order:

1. **Direct names** — ``rebuild_from_flash(ssd)`` resolves through the
   module's import bindings, following re-export chains
   (``from repro.flash import UncorrectableReadError`` chases through
   ``flash/__init__`` to the defining module).  Calling a class name
   edges to its ``__init__``.
2. **Methods on ``self``/``cls``** — resolved through the enclosing
   class's in-project MRO, *plus* overrides in known subclasses
   (virtual dispatch is over-approximated, which is what a safety
   analysis wants).  ``super().m()`` resolves up the MRO only.
3. **Typed receivers** — a local ``x = ClassName(...)`` or an instance
   attribute ``self.attr = ClassName(...)`` (anywhere in the class
   family) types later ``x.m()`` / ``self.attr.m()`` calls.
4. **Unique-name fallback** — an attribute call on an unknown receiver
   resolves iff exactly one project class defines the method
   (``bm.claim_block`` has one possible target, so the graph says so).
   Names that collide with common container/str methods (``append``,
   ``get``, ...) are never guessed at.
5. **Dynamic dispatch fallback** — a method name defined by several
   classes edges to *every* candidate (sound for effect propagation)
   and is additionally listed in the unresolved report as ambiguous;
   calls through local callables/``getattr`` are purely unresolved.
"""

import ast
from dataclasses import dataclass, field

#: Attribute names never resolved by the unique-name fallback: they
#: collide with builtin container/str/file methods, so a match against a
#: project method of the same name would usually be a wrong guess.
BUILTIN_METHOD_NAMES = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "bit_length",
        "capitalize",
        "clear",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "endswith",
        "extend",
        "format",
        "get",
        "group",
        "groupdict",
        "hexdigest",
        "index",
        "insert",
        "intersection",
        "isdigit",
        "issubset",
        "items",
        "join",
        "keys",
        "ljust",
        "lower",
        "lstrip",
        "most_common",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "replace",
        "reverse",
        "rjust",
        "rstrip",
        "search",
        "setdefault",
        "sort",
        "split",
        "splitlines",
        "startswith",
        "strip",
        "title",
        "union",
        "update",
        "upper",
        "values",
        "write",
        "writerows",
        "writerow",
        "read",
        "readline",
        "readlines",
        "close",
        "flush",
        "seek",
        "tell",
        "match",
        "fullmatch",
        "findall",
        "finditer",
        "sub",
        "to_bytes",
        "from_bytes",
    }
)


@dataclass(frozen=True)
class UnresolvedCall:
    """One call the graph could not (or would not) pin to a target."""

    caller: str  # qualified name of the calling function
    target: str  # best-effort rendering of what was called
    path: str
    line: int
    col: int
    reason: str  # "dynamic-call" | "ambiguous-method" | "unknown-name"
    candidates: tuple = ()

    def __str__(self):
        extra = ""
        if self.candidates:
            extra = " (candidates: %s)" % ", ".join(self.candidates)
        return "%s:%d: %s calls %s [%s]%s" % (
            self.path,
            self.line,
            self.caller,
            self.target,
            self.reason,
            extra,
        )


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # e.g. repro.ftl.ssd.BaseSSD.write
    module: object  # SourceModule
    node: object  # ast.FunctionDef / ast.AsyncFunctionDef
    class_qualname: str = None  # enclosing class, or None

    @property
    def is_method(self):
        return self.class_qualname is not None

    def param_names(self):
        """Positional parameter names (including self/cls)."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]


@dataclass
class ClassInfo:
    """One class definition: bases, methods, inferred attribute types."""

    qualname: str
    module: object
    node: object
    base_names: list = field(default_factory=list)  # unresolved base exprs
    methods: dict = field(default_factory=dict)  # name -> FunctionInfo
    #: attribute name -> set of class qualnames, from ``self.x = Cls(...)``.
    attr_types: dict = field(default_factory=dict)


def dotted(node):
    """``a.b.c`` as a list of names, or None for non-trivial chains."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class CallGraph:
    """Functions, classes, edges and the unresolved report for a project."""

    def __init__(self, project):
        self.project = project
        #: qualified name -> FunctionInfo
        self.functions = {}
        #: qualified name -> ClassInfo
        self.classes = {}
        #: module name -> {local name -> qualified target}
        self.bindings = {}
        #: caller qualname -> {callee qualname -> (line, col) of first call}
        self.edges = {}
        #: caller qualname -> [(ast.Call node, [callee qualnames])] — every
        #: call expression with its resolved targets, in source order.  The
        #: effects pass re-walks these with try/except context.
        self.calls = {}
        #: class qualname -> resolved in-project base class qualnames
        self._bases = {}
        #: class qualname -> direct subclasses
        self._subclasses = {}
        #: method name -> [FunctionInfo, ...] across every class
        self._methods_by_name = {}
        self.unresolved = []
        self._collect_definitions()
        self._resolve_hierarchy()
        self._infer_attr_types()
        self._build_edges()

    # --- Symbol collection ---------------------------------------------------

    def _collect_definitions(self):
        for module in self.project.modules:
            if module.module is None or module.tree is None:
                continue
            self.bindings[module.module] = _import_bindings(module)
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = "%s.%s" % (module.module, node.name)
                    self.functions[qual] = FunctionInfo(qual, module, node)
                elif isinstance(node, ast.ClassDef):
                    self._collect_class(module, node)

    def _collect_class(self, module, node):
        qual = "%s.%s" % (module.module, node.name)
        info = ClassInfo(qual, module, node)
        info.base_names = [dotted(b) for b in node.bases]
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mqual = "%s.%s" % (qual, item.name)
                finfo = FunctionInfo(mqual, module, item, class_qualname=qual)
                info.methods[item.name] = finfo
                self.functions[mqual] = finfo
                self._methods_by_name.setdefault(item.name, []).append(finfo)
        self.classes[qual] = info

    # --- Name resolution -----------------------------------------------------

    def resolve_symbol(self, module_name, chain, _seen=None):
        """Resolve a dotted name chain seen in ``module_name``.

        Returns a FunctionInfo, ClassInfo, a module name string (for a
        bare module reference), or None.  Re-export chains are chased
        with a cycle guard.
        """
        if not chain:
            return None
        if _seen is None:
            _seen = set()
        bindings = self.bindings.get(module_name, {})
        head = chain[0]
        target = bindings.get(head)
        if target is None:
            # A module-level definition in this very module?
            qual = "%s.%s" % (module_name, head)
            found = self.functions.get(qual) or self.classes.get(qual)
            if found is not None:
                return self._descend(found, chain[1:])
            return None
        return self.resolve_qualified(target, chain[1:], _seen)

    def resolve_qualified(self, qualified, rest=(), _seen=None):
        """Resolve an absolute dotted target plus trailing attributes."""
        if _seen is None:
            _seen = set()
        key = (qualified, tuple(rest))
        if key in _seen:
            return None
        _seen.add(key)
        # Longest module prefix wins: repro.flash.device.FlashDevice
        parts = qualified.split(".")
        for cut in range(len(parts), 0, -1):
            mod_name = ".".join(parts[:cut])
            if mod_name in self.project.by_module:
                attrs = parts[cut:] + list(rest)
                if not attrs:
                    return mod_name
                qual = "%s.%s" % (mod_name, attrs[0])
                found = self.functions.get(qual) or self.classes.get(qual)
                if found is not None:
                    return self._descend(found, attrs[1:])
                # Re-export: chase the module's own binding for the name.
                bound = self.bindings.get(mod_name, {}).get(attrs[0])
                if bound is not None:
                    return self.resolve_qualified(bound, attrs[1:], _seen)
                return None
        return None

    def _descend(self, found, rest):
        """Walk trailing attributes (``Class.method``) of a resolution."""
        for name in rest:
            if isinstance(found, ClassInfo):
                found = self.method_on(found.qualname, name)
            else:
                return None
            if found is None:
                return None
        return found

    # --- Class hierarchy -----------------------------------------------------

    def _resolve_hierarchy(self):
        for qual, info in self.classes.items():
            bases = []
            for chain in info.base_names:
                if not chain:
                    continue
                base = self.resolve_symbol(info.module.module, chain)
                if isinstance(base, ClassInfo):
                    bases.append(base.qualname)
            self._bases[qual] = bases
            for base in bases:
                self._subclasses.setdefault(base, []).append(qual)

    def mro(self, class_qualname):
        """The class and its in-project ancestors, depth-first."""
        out = []
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in out:
                continue
            out.append(qual)
            stack.extend(self._bases.get(qual, ()))
        return out

    def descendants(self, class_qualname):
        """Every in-project subclass, transitively."""
        out = []
        stack = list(self._subclasses.get(class_qualname, ()))
        while stack:
            qual = stack.pop()
            if qual in out:
                continue
            out.append(qual)
            stack.extend(self._subclasses.get(qual, ()))
        return out

    def family(self, class_qualname):
        """MRO plus descendants: every class sharing this instance shape."""
        out = self.mro(class_qualname)
        for sub in self.descendants(class_qualname):
            if sub not in out:
                out.append(sub)
        return out

    def method_on(self, class_qualname, name):
        """Resolve ``name`` through the in-project MRO (no overrides)."""
        for qual in self.mro(class_qualname):
            info = self.classes.get(qual)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def virtual_targets(self, class_qualname, name):
        """MRO resolution plus every subclass override (virtual dispatch)."""
        targets = []
        base = self.method_on(class_qualname, name)
        if base is not None:
            targets.append(base)
        for sub in self.descendants(class_qualname):
            info = self.classes.get(sub)
            if info is not None and name in info.methods:
                method = info.methods[name]
                if method not in targets:
                    targets.append(method)
        return targets

    # --- Instance attribute typing -------------------------------------------

    def _infer_attr_types(self):
        for info in self.classes.values():
            for method in info.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = node.value
                    if value is None:
                        continue
                    names = self._constructed_classes(info.module, value)
                    if not names:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_types.setdefault(
                                target.attr, set()
                            ).update(names)

    def _constructed_classes(self, module, value):
        """Project classes constructed anywhere inside expression ``value``."""
        names = set()
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted(node.func)
            if not chain:
                continue
            found = self.resolve_symbol(module.module, chain)
            if isinstance(found, ClassInfo):
                names.add(found.qualname)
        return names

    def attr_types_for(self, class_qualname, attr):
        """Inferred classes of ``self.<attr>`` across the class family."""
        out = set()
        for qual in self.family(class_qualname):
            info = self.classes.get(qual)
            if info is not None:
                out.update(info.attr_types.get(attr, ()))
        return out

    # --- Edge construction ---------------------------------------------------

    def _build_edges(self):
        for func in self.functions.values():
            self.edges.setdefault(func.qualname, {})
            records = self.calls.setdefault(func.qualname, [])
            local_types = self._local_types(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                targets = self._classify_call(func, node, local_types)
                resolved = []
                for info in targets:
                    self._add_edge(func, info, node)
                    if isinstance(info, ClassInfo):
                        init = self.method_on(info.qualname, "__init__")
                        resolved.append(
                            init.qualname if init is not None else info.qualname
                        )
                    else:
                        resolved.append(info.qualname)
                records.append((node, resolved))

    def _local_types(self, func):
        """Flow-insensitive local variable -> class qualnames map."""
        types = {}
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Assign):
                continue
            names = self._constructed_classes(func.module, node.value)
            if not names:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types.setdefault(target.id, set()).update(names)
        return types

    def _add_edge(self, caller, callee_info, node):
        sites = self.edges.setdefault(caller.qualname, {})
        if callee_info.qualname not in sites:
            sites[callee_info.qualname] = (node.lineno, node.col_offset + 1)
        # Calling a class constructs it: edge into __init__ too.
        if isinstance(callee_info, ClassInfo):
            init = self.method_on(callee_info.qualname, "__init__")
            if init is not None and init.qualname not in sites:
                sites[init.qualname] = (node.lineno, node.col_offset + 1)

    def _note_unresolved(self, caller, node, target, reason, candidates=()):
        self.unresolved.append(
            UnresolvedCall(
                caller=caller.qualname,
                target=target,
                path=caller.module.path,
                line=node.lineno,
                col=node.col_offset + 1,
                reason=reason,
                candidates=tuple(c.qualname for c in candidates),
            )
        )

    def _classify_call(self, func, node, local_types):
        """Resolve one call expression to its targets.

        Returns a list of FunctionInfo/ClassInfo (empty when the call is
        outside the project or unresolvable; the unresolved report is
        updated as a side effect).
        """
        callee = node.func
        module_name = func.module.module
        if isinstance(callee, ast.Name):
            found = self.resolve_symbol(module_name, [callee.id])
            if isinstance(found, (FunctionInfo, ClassInfo)):
                return [found]
            if found is None and not _is_builtin_name(callee.id):
                if callee.id not in local_types:
                    self._note_unresolved(
                        func, node, "%s()" % callee.id, "dynamic-call"
                    )
            return []
        if not isinstance(callee, ast.Attribute):
            # Calling the result of an expression: dynamic by definition.
            self._note_unresolved(func, node, "<expr>()", "dynamic-call")
            return []
        name = callee.attr
        if _is_bare_super(callee.value) and func.is_method:
            # super().m(): the next definition up the in-project MRO; a
            # base outside the project (Exception, object) has no edge.
            inherited = (
                self.method_on(base, name)
                for base in self._bases.get(func.class_qualname, ())
            )
            return [method for method in inherited if method is not None]
        receivers = self._receiver_classes(func, callee.value, local_types)
        if receivers is SELF:
            targets = self.virtual_targets(func.class_qualname, name)
            if targets:
                return targets
            # Fall through: maybe a mixin hook resolvable by name.
        elif isinstance(receivers, _ModuleRef):
            found = receivers.methods.get(name)
            if found is not None:
                return [found]
        elif isinstance(receivers, ClassInfo):
            # Unbound class attr (Cls.method) or class-typed receiver.
            if self.method_on(receivers.qualname, name) is not None:
                return self.virtual_targets(receivers.qualname, name)
        elif isinstance(receivers, set) and receivers:
            targets = []
            for cls_qual in sorted(receivers):
                for target in self.virtual_targets(cls_qual, name):
                    if target not in targets:
                        targets.append(target)
            if targets:
                return targets
        # Unknown receiver: unique-name fallback, then dynamic dispatch.
        if name in BUILTIN_METHOD_NAMES:
            return []  # never guess against container/str methods
        candidates = self._methods_by_name.get(name, [])
        if len(candidates) == 1:
            return list(candidates)
        if len(candidates) > 1:
            self._note_unresolved(
                func, node, ".%s()" % name, "ambiguous-method", candidates
            )
            return list(candidates)
        self._note_unresolved(func, node, ".%s()" % name, "unknown-name")
        return []

    def _receiver_classes(self, func, receiver, local_types):
        """Classify a call receiver expression.

        Returns SELF, a FunctionInfo/ClassInfo (module or class
        reference), a set of class qualnames, or None for unknown.
        """
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls") and func.is_method:
                return SELF
            if receiver.id in local_types:
                return local_types[receiver.id]
            found = self.resolve_symbol(func.module.module, [receiver.id])
            if isinstance(found, ClassInfo):
                return found
            if isinstance(found, str):  # module reference
                return _ModuleRef(found, self)
            return None
        if isinstance(receiver, ast.Attribute):
            chain = dotted(receiver)
            if chain is not None:
                if chain[0] == "self" and func.is_method:
                    # Walk self.a.b... through the inferred attribute
                    # types layer by layer (self.device -> FlashDevice,
                    # .counters -> OpCounters), so chained receivers
                    # resolve confidently instead of falling back to
                    # name guessing.
                    types = {func.class_qualname}
                    for attr in chain[1:]:
                        step = set()
                        for cls_qual in types:
                            step.update(self.attr_types_for(cls_qual, attr))
                        types = step
                        if not types:
                            break
                    if types:
                        return types
                found = self.resolve_symbol(func.module.module, chain)
                if isinstance(found, ClassInfo):
                    return found
                if isinstance(found, str):
                    return _ModuleRef(found, self)
        return None


#: Sentinel: the receiver is the enclosing instance.
SELF = object()


def _is_bare_super(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
        and not node.args
    )


class _ModuleRef(ClassInfo):
    """Adapter so a module reference resolves attr calls like a scope."""

    def __init__(self, module_name, graph):
        self.qualname = module_name
        self._graph = graph
        self.methods = _ModuleMethods(module_name, graph)
        self.attr_types = {}


class _ModuleMethods:
    def __init__(self, module_name, graph):
        self._module = module_name
        self._graph = graph

    def __contains__(self, name):
        return self.get(name) is not None

    def __getitem__(self, name):
        found = self.get(name)
        if found is None:
            raise KeyError(name)
        return found

    def get(self, name):
        found = self._graph.resolve_qualified(self._module, [name])
        if isinstance(found, (FunctionInfo, ClassInfo)):
            return found
        return None


def _import_bindings(module):
    """Local name -> absolute dotted target, from this module's imports."""
    from repro.analysis.imports import resolve_relative

    bindings = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    bindings[alias.name.split(".")[0]] = alias.name.split(
                        "."
                    )[0]
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(
                module.module, node.level, node.module or ""
            )
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = "%s.%s" % (
                    base,
                    alias.name,
                )
    return bindings


def _is_builtin_name(name):
    import builtins

    return hasattr(builtins, name)


def build_call_graph(project):
    """Build (and cache on the project) the whole-program call graph."""
    return project.cached("call_graph", lambda: CallGraph(project))
