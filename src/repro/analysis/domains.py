"""Flow-sensitive intraprocedural address-domain dataflow.

The paper's §3 bugs (OOB back-pointer, reverse index) are cross-domain
confusions: an LBA stored where a PPA belongs is still just an ``int``.
This pass assigns every integer-ish expression an *address domain* —

    LBA        logical page address          (``lpa``, ``slba``, ``Lba``)
    PPA        physical page address         (``ppa``, ``Ppa``)
    block-id   flat physical block address   (``pba``, ``BlockId``)
    t-us       simulated time                (``t``, ``now_us``, ``TimeUs``)
    bytes      byte count                    (``nbytes``, ``ByteCount``)
    pages      page count                    (``npages``, ``PageCount``)

— seeded from two sources: *names* (parameter/variable/attribute
naming conventions below) and *annotations* (the ``NewType`` aliases in
:mod:`repro.common.units`).  A name seed is authoritative: assigning a
PPA-domain value to a name spelled ``lpa`` is reported even though the
assignment would re-type a fresh variable.

Checked (one rule id each):

``domains-cross-assign``
    Assignment (incl. augmented, attributes, returns) whose value's
    domain contradicts the target's seeded domain.
``domains-cross-compare``
    Comparison or additive arithmetic (``+``/``-``) mixing two
    address/time domains (counts may offset anything, but ``bytes`` vs
    ``pages`` is itself a mix).
``domains-cross-arg``
    Argument whose domain contradicts the seeded domain of the resolved
    callee's parameter (confident call-graph edges only).

The analysis is flow-sensitive per function: :mod:`repro.analysis.flow`
walks branch arms and loop bodies on copies of the environment and
joins them (disagreement -> unknown).
Multiplicative/floor-division arithmetic deliberately launders domains
(``ppa // pages_per_block`` *is* the conversion idiom).
"""

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import build_call_graph, dotted
from repro.analysis.flow import FlowWalker

LBA = "LBA"
PPA = "PPA"
BLOCK = "block-id"
TIME = "t-us"
BYTES = "bytes"
PAGES = "pages"

#: Counts may legally offset addresses/times; only count-vs-count
#: disagreement (bytes where pages belong) is a mix.
COUNTS = frozenset({BYTES, PAGES})

#: ``NewType`` alias -> domain (see ``repro.common.units``).
NEWTYPE_DOMAINS = {
    "Lba": LBA,
    "Ppa": PPA,
    "BlockId": BLOCK,
    "TimeUs": TIME,
    "ByteCount": BYTES,
    "PageCount": PAGES,
}

_EXACT_NAMES = {
    "lpa": LBA,
    "lba": LBA,
    "slba": LBA,
    "ppa": PPA,
    "back_pointer": PPA,
    "null_ppa": PPA,
    "pba": BLOCK,
    "block_id": BLOCK,
    "t": TIME,
    "t2": TIME,
    "ts": TIME,
    "now": TIME,
    "arrival": TIME,
    "deadline": TIME,
    "timestamp": TIME,
    "nbytes": BYTES,
    "npages": PAGES,
    "nlb": PAGES,
    "num_pages": PAGES,
    "page_count": PAGES,
}

_SUFFIXES = (
    ("_lpa", LBA),
    ("_lba", LBA),
    ("_ppa", PPA),
    ("_pba", BLOCK),
    ("_us", TIME),
    ("_ts", TIME),
    ("_bytes", BYTES),
    ("_npages", PAGES),
    ("_pages", PAGES),
)


def seed_for_name(name):
    """The domain a bare identifier claims by its spelling, or None."""
    lowered = name.lower().lstrip("_")
    if lowered in _EXACT_NAMES:
        return _EXACT_NAMES[lowered]
    padded = "_" + lowered
    for suffix, domain in _SUFFIXES:
        if padded.endswith(suffix):
            return domain
    return None


def annotation_domain(annotation):
    """Domain named by an annotation expression, or None."""
    if isinstance(annotation, ast.Name):
        return NEWTYPE_DOMAINS.get(annotation.id)
    if isinstance(annotation, ast.Attribute):
        return NEWTYPE_DOMAINS.get(annotation.attr)
    return None


def incompatible(a, b):
    if a is None or b is None or a == b:
        return False
    if a in COUNTS or b in COUNTS:
        return a in COUNTS and b in COUNTS
    return True


def combine(a, b):
    """Domain of ``a (+|-) b`` (assuming the pair is compatible)."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a in COUNTS:
        return b
    if b in COUNTS:
        return a
    return None


@dataclass(frozen=True)
class Finding:
    rule_id: str
    line: int
    col: int
    message: str


class _Env(dict):
    """Local name -> domain at one program point."""

    def copy(self):
        return _Env(self)

    def join(self, other):
        """Disagreement -> unknown; a one-sided binding is kept."""
        out = _Env(other)
        for name, domain in self.items():
            out[name] = domain if other.get(name, domain) == domain else None
        return out


class _FunctionPass(FlowWalker):
    """One function's flow-sensitive walk (control flow: :mod:`.flow`)."""

    def __init__(self, owner, node, qualname):
        self.owner = owner  # DomainAnalysis
        self.node = node
        self.qualname = qualname
        self.annotated = {}  # local name -> annotation-seeded domain
        self.return_domain = annotation_domain(node.returns)
        self.targets_by_node = owner.call_targets(qualname)
        args = node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
        ):
            domain = annotation_domain(arg.annotation)
            if domain is not None:
                self.annotated[arg.arg] = domain
        self.walk(node.body, _Env())

    # -- statement level (FlowWalker transfer functions) ----------------------

    def expr(self, node, env):
        self._eval(node, env)

    def bind(self, target, env, source):
        self._assign_target(target, None, env, target)

    def returns(self, stmt, env):
        if stmt.value is not None:
            domain = self._eval(stmt.value, env)
            if incompatible(self.return_domain, domain):
                self._report(
                    "domains-cross-assign",
                    stmt,
                    "returns %s value from a function annotated %s"
                    % (domain, self.return_domain),
                )

    def nested(self, stmt, env):
        # Nested classes are out of scope for this pass.
        if not isinstance(stmt, ast.ClassDef):
            self.owner.check_function(stmt, qualname=None)

    def simple(self, stmt, env):
        if isinstance(stmt, ast.Assign):
            self._do_assign(stmt, env)
        elif isinstance(stmt, ast.AnnAssign):
            domain = annotation_domain(stmt.annotation)
            if domain is not None and isinstance(stmt.target, ast.Name):
                self.annotated[stmt.target.id] = domain
            if stmt.value is not None:
                value_domain = self._eval(stmt.value, env)
                self._assign_target(
                    stmt.target, value_domain, env, stmt
                )
        elif isinstance(stmt, ast.AugAssign):
            target_domain = self._eval(stmt.target, env)
            value_domain = self._eval(stmt.value, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and incompatible(
                target_domain, value_domain
            ):
                self._report(
                    "domains-cross-assign",
                    stmt,
                    "augmented assignment mixes %s and %s"
                    % (target_domain, value_domain),
                )
        else:
            # Expr / Assert / Delete / Global / ...: evaluate any
            # embedded expressions for compare/arg checks.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env)

    def _do_assign(self, stmt, env):
        # Element-wise when both sides are literal tuples of equal arity.
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], (ast.Tuple, ast.List))
            and isinstance(stmt.value, (ast.Tuple, ast.List))
            and len(stmt.targets[0].elts) == len(stmt.value.elts)
        ):
            for target, value in zip(
                stmt.targets[0].elts, stmt.value.elts
            ):
                domain = self._eval(value, env)
                self._assign_target(target, domain, env, value)
            return
        domain = self._eval(stmt.value, env)
        for target in stmt.targets:
            self._assign_target(target, domain, env, stmt)

    def _assign_target(self, target, domain, env, node):
        if isinstance(target, ast.Name):
            authority = self._name_authority(target.id)
            if incompatible(authority, domain):
                self._report(
                    "domains-cross-assign",
                    node,
                    "assigns %s value to %s name %r"
                    % (domain, authority, target.id),
                )
            env[target.id] = authority if authority is not None else domain
        elif isinstance(target, ast.Attribute):
            authority = seed_for_name(target.attr)
            if incompatible(authority, domain):
                self._report(
                    "domains-cross-assign",
                    node,
                    "assigns %s value to %s attribute %r"
                    % (domain, authority, target.attr),
                )
            self._eval(target.value, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, None, env, node)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, None, env, node)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value, env)
            self._eval(target.slice, env)

    # -- expression level -----------------------------------------------------

    def _name_authority(self, name):
        if name in self.annotated:
            return self.annotated[name]
        return seed_for_name(name)

    def _eval(self, expr, env):
        if isinstance(expr, ast.Name):
            authority = self._name_authority(expr.id)
            if authority is not None:
                return authority
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            self._eval(expr.value, env)
            return seed_for_name(expr.attr)
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                if incompatible(left, right):
                    self._report(
                        "domains-cross-compare",
                        expr,
                        "arithmetic mixes %s and %s" % (left, right),
                    )
                    return None
                return combine(left, right)
            # *, //, %, ... legitimately convert between domains.
            return None
        if isinstance(expr, ast.Compare):
            left_domain = self._eval(expr.left, env)
            for comparator in expr.comparators:
                right_domain = self._eval(comparator, env)
                if incompatible(left_domain, right_domain):
                    self._report(
                        "domains-cross-compare",
                        expr,
                        "compares %s with %s"
                        % (left_domain, right_domain),
                    )
                left_domain = right_domain
            return None
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self._eval(value, env)
            return None
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, env)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            then_domain = self._eval(expr.body, env)
            else_domain = self._eval(expr.orelse, env)
            return then_domain if then_domain == else_domain else None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self._eval(element, env)
            return None
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self._eval(key, env)
            for value in expr.values:
                self._eval(value, env)
            return None
        if isinstance(expr, ast.Subscript):
            self._eval(expr.value, env)
            self._eval(expr.slice, env)
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            inner = dict(env)
            for gen in expr.generators:
                self._eval(gen.iter, inner)
                self._assign_target(gen.target, None, inner, expr)
                for cond in gen.ifs:
                    self._eval(cond, inner)
            if isinstance(expr, ast.DictComp):
                self._eval(expr.key, inner)
                self._eval(expr.value, inner)
            else:
                self._eval(expr.elt, inner)
            return None
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Lambda):
            return None  # params unknown; skip the body
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                self._eval(value, env)
            return None
        if isinstance(expr, ast.FormattedValue):
            self._eval(expr.value, env)
            return None
        return None

    def _eval_call(self, expr, env):
        arg_domains = [self._eval(arg, env) for arg in expr.args]
        keyword_domains = {}
        for keyword in expr.keywords:
            domain = self._eval(keyword.value, env)
            if keyword.arg is not None:
                keyword_domains[keyword.arg] = domain
        if isinstance(expr.func, ast.Attribute):
            self._eval(expr.func.value, env)
        self._check_args(expr, arg_domains, keyword_domains)
        return self._call_result_domain(expr)

    def _check_args(self, expr, arg_domains, keyword_domains):
        targets = self.targets_by_node.get(id(expr))
        if not targets:
            return
        has_starred = any(
            isinstance(arg, ast.Starred) for arg in expr.args
        )
        for target in targets:
            info = self.owner.function_info(target)
            if info is None:
                continue
            if self.owner.is_ambiguous_edge(self.qualname, target):
                continue
            params = info.param_names()
            seeds = self.owner.param_seeds(info)
            if info.is_method and params and params[0] in ("self", "cls"):
                params = params[1:]
            if not has_starred:
                for position, domain in enumerate(arg_domains):
                    if position >= len(params):
                        break
                    expected = seeds.get(params[position])
                    if incompatible(expected, domain):
                        self._report(
                            "domains-cross-arg",
                            expr.args[position],
                            "argument %d of %s() expects %s, got %s"
                            % (
                                position + 1,
                                target.rsplit(".", 1)[-1],
                                expected,
                                domain,
                            ),
                        )
            for name, domain in keyword_domains.items():
                expected = seeds.get(name)
                if incompatible(expected, domain):
                    self._report(
                        "domains-cross-arg",
                        expr,
                        "keyword %r of %s() expects %s, got %s"
                        % (
                            name,
                            target.rsplit(".", 1)[-1],
                            expected,
                            domain,
                        ),
                    )

    def _call_result_domain(self, expr):
        targets = self.targets_by_node.get(id(expr))
        if targets:
            domains = set()
            for target in targets:
                info = self.owner.function_info(target)
                if info is not None:
                    domains.add(annotation_domain(info.node.returns))
            if len(domains) == 1:
                (domain,) = domains
                if domain is not None:
                    return domain
        # Fallback: the called name's own spelling (clock.now_us(), ...).
        chain = dotted(expr.func)
        if chain:
            return seed_for_name(chain[-1])
        return None

    def _report(self, rule_id, node, message):
        finding = Finding(
            rule_id=rule_id,
            line=node.lineno,
            col=node.col_offset + 1,
            message=message,
        )
        # Loop bodies are walked twice; a finding is reported once.
        if finding not in self.owner.findings:
            self.owner.findings.append(finding)


class DomainAnalysis:
    """Domain findings for one module (uses the project call graph)."""

    def __init__(self, module, project):
        self.module = module
        self.project = project
        self.graph = build_call_graph(project)
        self.findings = []
        self._param_seed_cache = {}
        self._walk_module()

    def _walk_module(self):
        if self.module.tree is None:
            return
        prefix = self.module.module
        for node in self.module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = (
                    "%s.%s" % (prefix, node.name) if prefix else None
                )
                self.check_function(node, qualname)
            elif isinstance(node, ast.ClassDef):
                class_qual = (
                    "%s.%s" % (prefix, node.name) if prefix else None
                )
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qualname = (
                            "%s.%s" % (class_qual, item.name)
                            if class_qual
                            else None
                        )
                        self.check_function(item, qualname)

    def check_function(self, node, qualname):
        _FunctionPass(self, node, qualname)

    # -- call graph adapters --------------------------------------------------

    def call_targets(self, qualname):
        """id(ast.Call) -> [callee qualnames] for one function."""
        if qualname is None:
            return {}
        return {
            id(node): targets
            for node, targets in self.graph.calls.get(qualname, ())
            if targets
        }

    def function_info(self, qualname):
        return self.graph.functions.get(qualname)

    def is_ambiguous_edge(self, caller, callee):
        if caller is None:
            return True
        return (caller, callee) in self.graph.ambiguous_edges

    def param_seeds(self, info):
        """Parameter name -> domain for a callee (annotation wins)."""
        cached = self._param_seed_cache.get(info.qualname)
        if cached is not None:
            return cached
        seeds = {}
        args = info.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            domain = annotation_domain(arg.annotation)
            if domain is None:
                domain = seed_for_name(arg.arg)
            if domain is not None:
                seeds[arg.arg] = domain
        self._param_seed_cache[info.qualname] = seeds
        return seeds


def domain_findings(module, project):
    """Findings for one module, cached on the project."""

    def build():
        return DomainAnalysis(module, project).findings

    return project.cached(("domain_findings", module.path), build)
