"""Deep rules: call-graph hygiene and the atomic-section mutations-last
check.

These rules need the whole-program call graph, so they carry
``deep = True`` and only run under ``--deep`` (or when selected
explicitly).

All whole-program work is computed once per run (cached on the
project); each module's ``check`` then yields only the violations
anchored in that module, which keeps the per-line suppression
machinery working unchanged.
"""

from repro.analysis import atomicity
from repro.analysis.callgraph import build_call_graph
from repro.analysis.core import LintRule, register
from repro.analysis.effects import effect_analysis
from repro.analysis.imports import subpackage


class _Anchor:
    """A (line, col) pair usable by ``LintRule.violation``."""

    def __init__(self, line, col=1):
        self.line = line
        self.col = col


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
        graph = build_call_graph(project)
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


@register
class RaiseAfterMutateRule(LintRule):
    rule_id = "concurrency-atomic-raise-after-mutate"
    pack = "concurrency"
    deep = True
    description = (
        "an atomic section that can raise partway through must keep "
        "its mutations last or declare restores_state=True"
    )

    def check(self, module, project):
        findings = project.cached(
            "raise_after_mutate_findings",
            lambda: atomicity.raise_after_mutate_findings(
                effect_analysis(project), atomicity.atomic_index(project)
            ),
        )
        for found_module, line, message in findings:
            if found_module is module:
                yield self.violation(module, _Anchor(line), message)
