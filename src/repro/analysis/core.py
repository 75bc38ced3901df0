"""Lint framework core: rules, registry, suppressions, and the driver.

A :class:`SourceModule` is one parsed file (source text, AST, dotted
module name, per-line suppressions).  A :class:`Project` is every module
of one run plus shared caches (the import graph, package SCCs).  Rules
subclass :class:`LintRule`, register themselves with :func:`register`,
and yield :class:`Violation` objects from ``check(module, project)``.

Suppression syntax, checked per physical line::

    t0 = time.time()          # almanac: ignore[determinism-wallclock]
    legacy_shim()             # almanac: ignore          (all rules)
    a_us + b_ms               # almanac: ignore[hygiene-unit-mix, other-id]

The driver never imports the code under analysis — everything is pure
``ast``, so linting a broken tree cannot execute it.
"""

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass

#: Pseudo rule id reported when a file does not parse at all.
PARSE_ERROR_RULE = "parse-error"

#: Rule id for suppressions that no longer suppress anything.  The rule
#: class (rules/suppressions.py) exists for --list-rules/--select; the
#: detection itself lives in the driver, which knows which suppressions
#: filtered a violation.  Deliberately NOT filterable by a blanket
#: ignore comment — a stale waiver must not hide its own staleness.
UNUSED_SUPPRESSION_RULE = "unused-suppression"

_SUPPRESS_RE = re.compile(
    r"#\s*almanac:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s-]*)\])?"
)


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which rule, and why it matters."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self):
        return "%s:%d:%d: [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.rule_id,
            self.message,
        )

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)


class LintRule:
    """Base class for one rule.  Subclasses set the class attributes and
    implement :meth:`check` as a generator of :class:`Violation`."""

    #: Stable kebab-case identifier, used in reports and suppressions.
    rule_id = None
    #: Rule family: ``determinism``, ``layering``, ``hygiene`` or ``obs``.
    pack = None
    #: One-line human description (shown by ``--list-rules``).
    description = ""

    def check(self, module, project):
        raise NotImplementedError

    def violation(self, module, node, message):
        """Build a :class:`Violation` anchored at an AST node (``lineno`` /
        ``col_offset``) or any object with 1-based ``line`` / ``col``."""
        line = getattr(node, "lineno", None)
        if line is not None:
            col = getattr(node, "col_offset", 0) + 1
        else:
            line = getattr(node, "line", 1)
            col = getattr(node, "col", 1)
        return Violation(
            rule_id=self.rule_id,
            path=module.path,
            line=line,
            col=col,
            message=message,
        )


_REGISTRY = {}


def register(cls):
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = cls()
    if not rule.rule_id or not rule.pack:
        raise ValueError("rule %s must define rule_id and pack" % cls.__name__)
    if rule.rule_id in _REGISTRY:
        raise ValueError("duplicate rule id %r" % rule.rule_id)
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules():
    """Every registered rule, sorted by (pack, rule_id)."""
    _load_rule_packs()
    return sorted(_REGISTRY.values(), key=lambda r: (r.pack, r.rule_id))


def rules_by_id(rule_ids):
    """Resolve a list of rule ids (or pack names) to rule instances."""
    _load_rule_packs()
    chosen = []
    for rule_id in rule_ids:
        if rule_id in _REGISTRY:
            chosen.append(_REGISTRY[rule_id])
            continue
        pack = [r for r in _REGISTRY.values() if r.pack == rule_id]
        if not pack:
            raise KeyError(
                "unknown rule or pack %r (try --list-rules)" % rule_id
            )
        chosen.extend(pack)
    return sorted(set(chosen), key=lambda r: r.rule_id)


def _load_rule_packs():
    # Importing the package registers every built-in rule exactly once.
    from repro.analysis import rules  # noqa: F401  (import-for-effect)


def _parse_suppressions(source):
    """Map 1-based line number -> set of suppressed rule ids ('*' = all).

    Tokenized so only *real* comments count — a docstring or string
    literal that mentions ``# almanac: ignore[...]`` (this framework's
    own documentation does) must neither suppress anything nor be
    reported as an unused suppression.
    """
    table = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                table[token.start[0]] = {"*"}
            else:
                names = {
                    part.strip() for part in ids.split(",") if part.strip()
                }
                table[token.start[0]] = names or {"*"}
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tail: keep what tokenized; rules won't run anyway
    return table


def _module_name_for(path):
    """Dotted module name, found by ascending through ``__init__.py`` dirs.

    Returns ``None`` for a file that is not part of a package — such a
    file is still linted, but layering (which needs a position in the
    ``repro`` tree) skips it.
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    parts = []
    base = os.path.splitext(filename)[0]
    if base != "__init__":
        parts.append(base)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
        if not pkg:  # filesystem root; give up rather than loop
            break
    if not parts:
        return None
    if not os.path.isfile(
        os.path.join(os.path.dirname(path), "__init__.py")
    ):
        return None
    return ".".join(reversed(parts))


class SourceModule:
    """One parsed source file."""

    def __init__(self, path, source, display_path=None):
        self.path = display_path or path
        self.source = source
        self.module = _module_name_for(path)
        self.suppressions = _parse_suppressions(source)
        self.parse_error = None
        try:
            self.tree = ast.parse(source, filename=self.path)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = exc

    @classmethod
    def from_path(cls, path, display_path=None):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (UnicodeDecodeError, ValueError) as exc:
            # A file the reader cannot decode is reported like a syntax
            # error, never crashed on: the runner must survive any input.
            module = cls(path, "", display_path=display_path)
            module.tree = None
            module.parse_error = _DecodeError(str(exc))
            return module
        return cls(path, source, display_path=display_path)

    def is_suppressed(self, violation):
        names = self.suppressions.get(violation.line)
        if not names:
            return False
        return "*" in names or violation.rule_id in names


class _DecodeError:
    """Stand-in for SyntaxError when a file is not valid UTF-8 text."""

    lineno = None
    offset = None

    def __init__(self, msg):
        self.msg = msg


class Project:
    """All modules of one lint run plus shared per-run caches."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.by_module = {
            m.module: m for m in self.modules if m.module is not None
        }
        self.cache = {}

    def cached(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]


def collect_files(paths):
    """Expand files/directories into a sorted list of ``.py`` files.

    A path that does not exist raises ``FileNotFoundError`` — a typo'd
    CI invocation must fail loudly, not report a clean empty run.
    """
    found = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError("no such file or directory: %r" % path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return sorted(set(found))


def _check_module(module, rules, project):
    """Run ``rules`` over one module.

    Returns ``(violations, used)`` where ``used`` is the set of
    ``(line, name)`` suppression entries that filtered a violation
    (``name`` is a rule id, or ``"*"`` for a blanket ignore).
    """
    violations = []
    used = set()
    for rule in rules:
        if rule.rule_id == UNUSED_SUPPRESSION_RULE:
            continue  # driver-implemented below
        for violation in rule.check(module, project):
            names = module.suppressions.get(violation.line)
            if names and violation.rule_id in names:
                used.add((violation.line, violation.rule_id))
            elif names and "*" in names:
                used.add((violation.line, "*"))
            else:
                violations.append(violation)
    return violations, used


def _unused_suppressions(modules, used_by_path, selected_ids):
    """Driver phase for the ``unused-suppression`` rule.

    An id-ful suppression is unused when its id was selected this run
    and filtered nothing on its line.  A blanket ignore is judged only
    when the full registry ran (a subset run cannot prove it stale).
    This check deliberately bypasses suppression filtering.
    """
    check_blanket = selected_ids >= {r.rule_id for r in all_rules()}
    violations = []
    for module in modules:
        if module.parse_error is not None:
            continue
        used = used_by_path.get(module.path, set())
        for line in sorted(module.suppressions):
            for name in sorted(module.suppressions[line]):
                if name == "*":
                    if check_blanket and (line, "*") not in used:
                        violations.append(
                            Violation(
                                rule_id=UNUSED_SUPPRESSION_RULE,
                                path=module.path,
                                line=line,
                                col=1,
                                message=(
                                    "blanket '# almanac: ignore' "
                                    "suppressed nothing; remove it"
                                ),
                            )
                        )
                elif (
                    name in selected_ids
                    and name != UNUSED_SUPPRESSION_RULE
                    and (line, name) not in used
                ):
                    violations.append(
                        Violation(
                            rule_id=UNUSED_SUPPRESSION_RULE,
                            path=module.path,
                            line=line,
                            col=1,
                            message=(
                                "suppression of %r no longer fires; "
                                "remove the stale waiver" % name
                            ),
                        )
                    )
    return violations


def analyze_paths(paths, rules=None):
    """Lint ``paths`` (files or directories) and return sorted violations.

    ``rules=None`` means every registered rule.
    """
    if rules is None:
        rules = all_rules()
    selected_ids = {rule.rule_id for rule in rules}
    modules = [SourceModule.from_path(p) for p in collect_files(paths)]
    project = Project(modules)
    violations = []
    used_by_path = {}
    for module in modules:
        if module.parse_error is not None:
            exc = module.parse_error
            violations.append(
                Violation(
                    rule_id=PARSE_ERROR_RULE,
                    path=module.path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    message="file does not parse: %s" % exc.msg,
                )
            )
            continue
        found, used = _check_module(module, rules, project)
        violations.extend(found)
        if used:
            used_by_path[module.path] = used
    if UNUSED_SUPPRESSION_RULE in selected_ids:
        violations.extend(
            _unused_suppressions(modules, used_by_path, selected_ids)
        )
    return sorted(violations, key=Violation.sort_key)
