"""Deep rules: the concurrency tier (interleaving contract).

Each rule wraps one engine from :mod:`repro.analysis.concurrency`.
Findings are computed once per run (cached on the project) and emitted
per module, so suppressions and SARIF behave exactly like every other
deep pack.
"""

from repro.analysis.concurrency import atomicity, shared_state, yields
from repro.analysis.core import LintRule, register
from repro.analysis.effects import effect_analysis


class _ConcurrencyRule(LintRule):
    """Base: one cached findings list, yielded per module."""

    pack = "concurrency"
    deep = True

    def check(self, module, project):
        findings = project.cached(
            ("concurrency_findings", self.rule_id),
            lambda: list(self._evaluate(project)),
        )
        for found_module, anchor, message in findings:
            if found_module is module:
                yield self.violation(module, anchor, message)

    def _evaluate(self, project):
        raise NotImplementedError


@register
class UnclassifiedSharedStateRule(_ConcurrencyRule):
    rule_id = "concurrency-unclassified-shared-state"
    description = (
        "state written by two or more schedulable task roots must "
        "belong to an owner class with a declared interleaving policy "
        "(class-granular: one policy covers every attribute of its owner)"
    )

    def _evaluate(self, project):
        return shared_state.unclassified_findings(project)


@register
class StalePolicyRule(_ConcurrencyRule):
    rule_id = "concurrency-stale-policy"
    description = (
        "a declared SharedStatePolicy must match at least one "
        "inventoried owner; stale entries rot the contract"
    )

    def _evaluate(self, project):
        return shared_state.stale_policy_findings(project)


@register
class UnannotatedFlashMutatorRule(_ConcurrencyRule):
    rule_id = "concurrency-unannotated-flash-mutator"
    description = (
        "every flash-mutating site reachable from a schedulable task "
        "root must sit inside an @atomic_section"
    )

    def _evaluate(self, project):
        analysis = effect_analysis(project)
        index = atomicity.atomic_index(project)
        return atomicity.unannotated_mutator_findings(analysis, index)


@register
class ReentrantAtomicRule(_ConcurrencyRule):
    rule_id = "concurrency-reentrant-atomic"
    description = (
        "no call out of an atomic section may reach a competing "
        "schedulable task root (re-entrancy)"
    )

    def _evaluate(self, project):
        analysis = effect_analysis(project)
        index = atomicity.atomic_index(project)
        return atomicity.reentrancy_findings(analysis, index)


@register
class YieldInAtomicRule(_ConcurrencyRule):
    rule_id = "concurrency-yield-in-atomic"
    description = (
        "await/scheduler-yield must not appear inside an atomic "
        "section or anything it calls"
    )

    def _evaluate(self, project):
        analysis = effect_analysis(project)
        index = atomicity.atomic_index(project)
        task_generators = frozenset(
            yields.yield_analysis(project).task_generators
        )
        return atomicity.yield_findings(
            analysis, index, task_generators=task_generators
        )


@register
class RaiseAfterMutateRule(_ConcurrencyRule):
    rule_id = "concurrency-atomic-raise-after-mutate"
    description = (
        "an atomic section that can raise partway through must keep "
        "its mutations last or declare restores_state=True"
    )

    def _evaluate(self, project):
        analysis = effect_analysis(project)
        index = atomicity.atomic_index(project)
        return atomicity.raise_after_mutate_findings(analysis, index)


@register
class MalformedAtomicRule(_ConcurrencyRule):
    rule_id = "concurrency-malformed-atomic"
    description = (
        "@atomic_section must be called with a literal non-empty "
        "reason string (and a literal bool restores_state)"
    )

    def _evaluate(self, project):
        effect_analysis(project)  # builds the graph the index reads
        index = atomicity.atomic_index(project)
        return list(index.malformed)


@register
class StaleReadAfterYieldRule(_ConcurrencyRule):
    rule_id = "concurrency-stale-read-after-yield"
    description = (
        "a local derived from policy-classified shared state must be "
        "re-read after the task may have been suspended"
    )

    def _evaluate(self, project):
        return yields.stale_read_findings(project)


@register
class BadYieldValueRule(_ConcurrencyRule):
    rule_id = "concurrency-bad-yield-value"
    description = (
        "a task generator may only yield wait instructions "
        "(Delay/At) or delegate to another task generator"
    )

    def _evaluate(self, project):
        return yields.bad_yield_findings(project)


@register
class ReturnInDaemonRule(_ConcurrencyRule):
    rule_id = "concurrency-return-in-daemon"
    description = (
        "a daemon task generator must not return; a finished daemon "
        "stops its background service silently"
    )

    def _evaluate(self, project):
        return yields.return_in_daemon_findings(project)
