"""Lint framework core: the rule table, the one walk, and the lint run.

A :class:`SourceModule` is one parsed file: source text, dotted module
name, per-line suppressions, and its AST walked once, with the nodes
the rules read sorted by type (imports, calls, function defs, except
handlers, arithmetic).  A :class:`Project` is every module of one run
plus the indices built over them once.  A rule is one row of
:data:`RULES`; its ``check(module, project)`` is a plain function over
those buckets that yields ``(anchor, message)`` pairs, the anchor being
the AST node the finding sits on (one without a position, such as the
module itself, means line 1, column 1).

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
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

from repro.analysis.imports import package_graph
from repro.analysis.rules import determinism, hygiene, layering, observability

#: Pseudo rule id reported when a file does not parse at all.
PARSE_ERROR_RULE = "parse-error"

#: Rule id for suppressions that no longer suppress anything.  Its row
#: has no check: :func:`analyze_paths` detects it, because only the
#: run knows which suppressions filtered a violation.  Deliberately NOT
#: filterable by a blanket ignore comment — a stale waiver must not
#: hide its own staleness.
UNUSED_SUPPRESSION_RULE = "unused-suppression"

_SUPPRESS_RE = re.compile(
    r"#\s*almanac:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s-]*)\])?"
)

Rule = namedtuple("Rule", "rule_id pack description check")

#: Every rule: stable kebab-case id (used in reports and suppressions),
#: pack, the one-line description ``--list-rules`` shows, and the check.
RULES = (
    Rule(
        "determinism-global-random",
        "determinism",
        "forbid the random module's global functions (random.random, "
        "random.randrange, ...); draw from an explicit random.Random(seed)",
        determinism.global_random,
    ),
    Rule(
        "determinism-unseeded-rng",
        "determinism",
        "random.Random() with no seed argument, or random.SystemRandom(), "
        "is nondeterministic; pass an explicit seed",
        determinism.unseeded_rng,
    ),
    Rule(
        "determinism-wallclock",
        "determinism",
        "forbid wall-clock reads (time.time, datetime.now, ...); "
        "simulated time comes from repro.common.clock.SimClock",
        determinism.wallclock,
    ),
    Rule(
        "hygiene-bare-except",
        "hygiene",
        "bare except swallows KeyboardInterrupt and the typed error taxonomy",
        hygiene.bare_except,
    ),
    Rule(
        "hygiene-mutable-default",
        "hygiene",
        "mutable default argument ([], {}, set()) aliases state across calls",
        hygiene.mutable_default,
    ),
    Rule(
        "hygiene-print",
        "hygiene",
        "print() in a library module; return values or use stats helpers",
        hygiene.print_call,
    ),
    Rule(
        "hygiene-unit-mix",
        "hygiene",
        "adding/comparing operands with different unit suffixes "
        "(us vs ms, bytes vs KiB)",
        hygiene.unit_mix,
    ),
    Rule(
        UNUSED_SUPPRESSION_RULE,
        "hygiene",
        "an '# almanac: ignore[...]' comment suppressed nothing this "
        "run; stale waivers must expire, not accumulate",
        None,
    ),
    Rule(
        "layering-cycle",
        "layering",
        "repro subpackages must not form import cycles",
        layering.import_cycle,
    ),
    Rule(
        "layering-flash-api",
        "layering",
        "only flash/ftl/timessd may call raw flash program/erase APIs "
        "(program_page, erase_block)",
        layering.flash_api,
    ),
    Rule(
        "layering-order",
        "layering",
        "repro packages may import their own layer or below "
        "(common -> flash -> ftl/timessd -> fs/nvme/timekits -> apps)",
        layering.layer_order,
    ),
    Rule(
        "layering-private-cross-package",
        "layering",
        "a _private name may only be imported or called from its own "
        "repro subpackage (self/cls/super() calls are exempt)",
        layering.private_cross_package,
    ),
    Rule(
        "obs-uncataloged-metric",
        "obs",
        "every emitted metric name must have a catalog row in "
        "docs/OBSERVABILITY.md, and every catalog row must still be "
        "referenced in code",
        observability.uncataloged_metric,
    ),
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


def all_rules():
    """Every rule, sorted by (pack, rule_id)."""
    return sorted(RULES, key=lambda r: (r.pack, r.rule_id))


def rules_by_id(rule_ids):
    """Resolve a list of rule ids (or pack names) to rules."""
    chosen = set()
    for rule_id in rule_ids:
        matches = [r for r in RULES if rule_id in (r.rule_id, r.pack)]
        if not matches:
            raise KeyError(
                "unknown rule or pack %r (try --list-rules)" % rule_id
            )
        chosen.update(matches)
    return sorted(chosen, key=lambda r: r.rule_id)


def _parse_suppressions(source):
    """Map 1-based line number -> set of suppressed rule ids ('*' = all).

    Tokenized so only *real* comments count — a docstring or string
    literal that mentions ``# almanac: ignore[...]`` (this framework's
    own documentation does) must neither suppress anything nor be
    reported as an unused suppression.  A file without the marker text
    is not tokenized at all.
    """
    table = {}
    if "almanac:" not in source:
        return table
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
    """One parsed source file, its nodes sorted by type in one walk."""

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
        self.imports, self.calls, self.defs = [], [], []
        self.handlers, self.arithmetic = [], []
        bucket_of = {
            ast.Import: self.imports,
            ast.ImportFrom: self.imports,
            ast.Call: self.calls,
            ast.FunctionDef: self.defs,
            ast.AsyncFunctionDef: self.defs,
            ast.ExceptHandler: self.handlers,
            ast.BinOp: self.arithmetic,
            ast.Compare: self.arithmetic,
            ast.AugAssign: self.arithmetic,
        }
        for node in ast.walk(self.tree) if self.tree is not None else ():
            bucket = bucket_of.get(type(node))
            if bucket is not None:
                bucket.append(node)
        #: module -> local names bound by ``import module [as name]``, and
        #: module -> {local name: original} bound by ``from module
        #: import ...``, anywhere in the file.
        self.import_aliases, self.from_imports = {}, {}
        for node in self.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases.setdefault(alias.name, set()).add(
                        alias.asname or alias.name
                    )
            else:
                bound = self.from_imports.setdefault(node.module, {})
                for alias in node.names:
                    bound[alias.asname or alias.name] = alias.name

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


class _DecodeError:
    """Stand-in for SyntaxError when a file is not valid UTF-8 text."""

    lineno = None
    offset = None

    def __init__(self, msg):
        self.msg = msg


class Project:
    """All modules of one lint run and the indices built over them once,
    on first use."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.by_module = {
            m.module: m for m in self.modules if m.module is not None
        }

    @cached_property
    def package_graph(self):
        return package_graph(self.modules)

    @cached_property
    def private_definitions(self):
        return layering.private_definitions(self.modules)

    @cached_property
    def metric_findings(self):
        return observability.catalog_findings(self)


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
        if rule.check is None:
            continue  # unused-suppression: see _unused_suppressions
        for anchor, message in rule.check(module, project):
            line = getattr(anchor, "lineno", 1)
            names = module.suppressions.get(line)
            if names and rule.rule_id in names:
                used.add((line, rule.rule_id))
            elif names and "*" in names:
                used.add((line, "*"))
            else:
                violations.append(
                    Violation(
                        rule_id=rule.rule_id,
                        path=module.path,
                        line=line,
                        col=getattr(anchor, "col_offset", 0) + 1,
                        message=message,
                    )
                )
    return violations, used


def _unused_suppressions(modules, used_by_path, selected_ids):
    """Driver phase for the ``unused-suppression`` rule.

    An id-ful suppression is unused when its id was selected this run
    and filtered nothing on its line.  A blanket ignore is judged only
    when every rule ran (a subset run cannot prove it stale).
    This check deliberately bypasses suppression filtering.
    """
    check_blanket = selected_ids >= {r.rule_id for r in RULES}
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

    ``rules=None`` means every rule.
    """
    if rules is None:
        rules = RULES
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
