"""Deep rules: call-graph hygiene, the effect contract table and the
atomic-section mutations-last check.

These rules need the whole-program call graph, so they carry
``deep = True`` and only run under ``--deep`` (or when selected
explicitly).  Each contract in :data:`repro.analysis.contracts.CONTRACTS`
is materialised as one lint rule, so contract ids work with
``--select``, suppressions and every reporter, and adding a contract to
the table requires no rule code.

All whole-program work is computed once per run (cached on the
project); each module's ``check`` then yields only the violations
anchored in that module, which keeps the per-line suppression
machinery working unchanged.
"""

from repro.analysis import atomicity
from repro.analysis import contracts as contract_table
from repro.analysis.core import LintRule, register
from repro.analysis.effects import effect_analysis
from repro.analysis.imports import subpackage


def _chain_text(chain):
    return " -> ".join(part.rsplit(".", 2)[-1] for part in chain) or chain


class _Anchor:
    """A (line, col) pair usable by ``LintRule.violation``."""

    def __init__(self, line, col=1):
        self.line = line
        self.col = col


def _def_anchor(analysis, qualname):
    info = analysis.graph.functions.get(qualname)
    if info is None:
        return _Anchor(1)
    return _Anchor(info.node.lineno, info.node.col_offset + 1)


def _is_private_name(qualname):
    short = qualname.rsplit(".", 1)[-1]
    return short.startswith("_") and not short.startswith("__")


def _definition_root(graph, candidates):
    """Collapse one call's candidate set to its base-most definition.

    Virtual dispatch yields every override as a candidate; when all of
    them sit in one class family the call is *to the base definition*
    and should be judged (and reported) once, there.  Candidates from
    unrelated families are a genuinely dynamic call — return None and
    leave it to the unresolved report.
    """
    if len(candidates) == 1:
        return candidates[0]
    infos = [graph.functions.get(qual) for qual in candidates]
    if any(info is None or info.class_qualname is None for info in infos):
        return None
    for info in infos:
        if all(
            info.class_qualname in graph.mro(other.class_qualname)
            for other in infos
        ):
            return info.qualname
    return None


@register
class PrivateCrossPackageCallRule(LintRule):
    rule_id = "callgraph-private-cross-package"
    pack = "callgraph"
    deep = True
    description = (
        "a _private function/method may only be called from its own "
        "repro subpackage (self/super dispatch within a class family "
        "is exempt)"
    )

    def check(self, module, project):
        if module.module is None or module.tree is None:
            return
        analysis = effect_analysis(project)
        graph = analysis.graph
        caller_pkg = subpackage(module.module)
        if caller_pkg is None:
            return
        seen = set()
        for caller in sorted(graph.calls):
            info = graph.functions.get(caller)
            if info is None or info.module is not module:
                continue
            caller_family = (
                set(graph.family(info.class_qualname))
                if info.class_qualname
                else set()
            )
            for node, targets in graph.calls[caller]:
                private = [t for t in targets if _is_private_name(t)]
                if not private:
                    continue
                # self/super dispatch: a candidate inside the caller's own
                # class family makes this an intra-family private call.
                if any(
                    (lambda t_info: t_info is not None
                     and t_info.class_qualname in caller_family)(
                        graph.functions.get(target)
                    )
                    for target in private
                ):
                    continue
                root = _definition_root(graph, private)
                if root is None:
                    continue  # multi-family dynamic call: unresolved report
                callee_pkg = subpackage(root)
                if callee_pkg is None or callee_pkg == caller_pkg:
                    continue
                key = (node.lineno, node.col_offset, root)
                if key in seen:
                    continue
                seen.add(key)
                yield self.violation(
                    module,
                    node,
                    "%s calls private %s across the %s -> %s package "
                    "boundary; use (or add) a public API"
                    % (caller, root, caller_pkg, callee_pkg),
                )


class _ContractRule(LintRule):
    """Base: findings computed once per run, emitted per module."""

    deep = True
    contract = None

    def check(self, module, project):
        analysis = effect_analysis(project)
        findings = project.cached(
            ("contract_findings", self.rule_id),
            lambda: list(self._evaluate(analysis)),
        )
        for found_module, anchor, message in findings:
            if found_module is module:
                yield self.violation(module, anchor, message)

    def _evaluate(self, analysis):
        raise NotImplementedError

    def _anchored(self, analysis, qualname, message):
        info = analysis.graph.functions.get(qualname)
        if info is None:
            return None
        return (info.module, _def_anchor(analysis, qualname), message)


class _ReachContractRule(_ContractRule):
    def _evaluate(self, analysis):
        contract = self.contract
        roots = []
        for root in contract.roots:
            if root.endswith("."):
                roots.extend(
                    qual
                    for qual in sorted(analysis.graph.functions)
                    if qual.startswith(root)
                )
            else:
                roots.append(root)
        waived = contract.waived_qualnames()
        for root in roots:
            paths = analysis.find_effect_paths(
                root, contract.effect, waived
            )
            for chain, site in paths:
                message = (
                    "%s: %s reaches %r via %s (intrinsic at %s:%d)"
                    % (
                        contract.description,
                        root,
                        contract.effect,
                        _chain_text(chain),
                        site[0] if site else "?",
                        site[1] if site else 0,
                    )
                )
                anchored = self._anchored(analysis, root, message)
                if anchored is not None:
                    yield anchored


class _CallerContractRule(_ContractRule):
    def _evaluate(self, analysis):
        contract = self.contract
        allowed = set(contract.allowed_callers)
        for callee in contract.callees:
            callers = analysis.callers_of(callee, confident_only=True)
            for caller, (line, col) in sorted(callers.items()):
                if caller in allowed:
                    continue
                info = analysis.graph.functions.get(caller)
                if info is None:
                    continue
                yield (
                    info.module,
                    _Anchor(line, col),
                    "%s: %s may not call %s (allowed: %s)"
                    % (
                        contract.description,
                        caller,
                        callee,
                        ", ".join(contract.allowed_callers),
                    ),
                )


class _RaiseContractRule(_ContractRule):
    def _evaluate(self, analysis):
        contract = self.contract
        allowed = contract.allowed
        for qualname in sorted(analysis.effects):
            if not qualname.startswith(contract.scope):
                continue
            for atom in sorted(analysis.effects_of(qualname)):
                raised = _atom_exception(atom)
                if raised is None:
                    continue
                if raised != "*" and any(
                    analysis.hierarchy.is_caught_by(raised, {allow})
                    for allow in allowed
                ):
                    continue
                message = (
                    "%s: %s may raise %s (allowed: %s)"
                    % (
                        contract.description,
                        qualname,
                        raised,
                        ", ".join(allowed),
                    )
                )
                anchored = self._anchored(analysis, qualname, message)
                if anchored is not None:
                    yield anchored


def _atom_exception(atom):
    from repro.analysis.effects import atom_exception

    return atom_exception(atom)


_SHAPES = {
    contract_table.ReachContract: _ReachContractRule,
    contract_table.CallerContract: _CallerContractRule,
    contract_table.RaiseContract: _RaiseContractRule,
}

for _contract in contract_table.CONTRACTS:
    register(
        type(
            "Contract_%s" % _contract.rule_id.replace("-", "_"),
            (_SHAPES[type(_contract)],),
            {
                "rule_id": _contract.rule_id,
                "pack": "effects",
                "description": _contract.description,
                "contract": _contract,
            },
        )
    )


@register
class RaiseAfterMutateRule(_ContractRule):
    rule_id = "concurrency-atomic-raise-after-mutate"
    pack = "concurrency"
    description = (
        "an atomic section that can raise partway through must keep "
        "its mutations last or declare restores_state=True"
    )

    def _evaluate(self, analysis):
        sections = atomicity.atomic_index(analysis.project)
        for module, line, message in atomicity.raise_after_mutate_findings(
            analysis, sections
        ):
            yield module, _Anchor(line), message
