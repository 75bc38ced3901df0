"""Determinism rules: no wall clocks, no shared global RNG.

A trace replay must give bit-identical results run-to-run; the two ways
code silently breaks that are reading host time (``time.time()``,
``datetime.now()``) and drawing from implicitly-seeded randomness (the
``random`` module's global functions, or ``random.Random()`` with no
seed).  Simulated time comes from :class:`repro.common.clock.SimClock`;
randomness comes from an explicit ``random.Random(seed)`` threaded
through constructors.
"""

import ast

from repro.analysis.core import LintRule, register

#: ``time`` attributes that read or depend on the host clock.
_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
        "localtime",
        "gmtime",
    }
)

#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _dotted(node):
    """``a.b.c`` attribute chain as a list of names, or ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _import_aliases(tree, target_module):
    """Local names bound to ``target_module`` by plain imports."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target_module:
                    aliases.add(alias.asname or target_module)
    return aliases


def _from_imports(tree, target_module):
    """Local name -> original name, for ``from target_module import ...``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == target_module:
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    return bound


@register
class WallClockRule(LintRule):
    rule_id = "determinism-wallclock"
    pack = "determinism"
    description = (
        "forbid wall-clock reads (time.time, datetime.now, ...); "
        "simulated time comes from repro.common.clock.SimClock"
    )

    def check(self, module, project):
        tree = module.tree
        time_aliases = _import_aliases(tree, "time")
        dt_module_aliases = _import_aliases(tree, "datetime")
        from_time = {
            local: orig
            for local, orig in _from_imports(tree, "time").items()
            if orig in _TIME_ATTRS
        }
        from_datetime = _from_imports(tree, "datetime")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if not chain:
                continue
            message = self._forbidden(
                chain, time_aliases, dt_module_aliases, from_time, from_datetime
            )
            if message:
                yield self.violation(module, node, message)

    def _forbidden(
        self, chain, time_aliases, dt_module_aliases, from_time, from_datetime
    ):
        head, tail = chain[0], chain[1:]
        suggestion = "; use the shared SimClock (repro.common.clock)"
        # time.time(), time.sleep(), t.monotonic() with `import time as t`
        if head in time_aliases and len(tail) == 1 and tail[0] in _TIME_ATTRS:
            return "wall-clock call time.%s()%s" % (tail[0], suggestion)
        # from time import time / monotonic ...
        if head in from_time and not tail:
            return "wall-clock call time.%s()%s" % (from_time[head], suggestion)
        # datetime.datetime.now(), datetime.date.today()
        if (
            head in dt_module_aliases
            and len(tail) == 2
            and tail[1] in _DATETIME_ATTRS
        ):
            return "wall-clock call datetime.%s.%s()%s" % (
                tail[0],
                tail[1],
                suggestion,
            )
        # from datetime import datetime; datetime.now()
        if (
            head in from_datetime
            and len(tail) == 1
            and tail[0] in _DATETIME_ATTRS
        ):
            return "wall-clock call %s.%s()%s" % (
                from_datetime[head],
                tail[0],
                suggestion,
            )
        return None


@register
class GlobalRandomRule(LintRule):
    rule_id = "determinism-global-random"
    pack = "determinism"
    description = (
        "forbid the random module's global functions (random.random, "
        "random.randrange, ...); draw from an explicit random.Random(seed)"
    )

    def check(self, module, project):
        tree = module.tree
        aliases = _import_aliases(tree, "random")
        for node in ast.walk(tree):
            # `from random import randrange` smuggles the global RNG in
            # under a bare name: flag the import itself.
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.violation(
                            module,
                            node,
                            "from random import %s binds the shared global "
                            "RNG; import random and use an explicit "
                            "random.Random(seed)" % alias.name,
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if (
                chain
                and len(chain) == 2
                and chain[0] in aliases
                and chain[1] != "Random"
                and chain[1] != "SystemRandom"
            ):
                yield self.violation(
                    module,
                    node,
                    "random.%s() draws from the shared global RNG; use an "
                    "explicit random.Random(seed) instance" % chain[1],
                )


@register
class UnseededRngRule(LintRule):
    rule_id = "determinism-unseeded-rng"
    pack = "determinism"
    description = (
        "random.Random() with no seed argument is nondeterministic; "
        "pass an explicit seed"
    )

    def check(self, module, project):
        tree = module.tree
        aliases = _import_aliases(tree, "random")
        from_random = _from_imports(tree, "random")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if not chain:
                continue
            is_ctor = (
                len(chain) == 2 and chain[0] in aliases and chain[1] == "Random"
            ) or (
                len(chain) == 1 and from_random.get(chain[0]) == "Random"
            )
            if is_ctor and not node.args and not node.keywords:
                yield self.violation(
                    module,
                    node,
                    "random.Random() without a seed is seeded from the OS; "
                    "pass an explicit per-workload seed",
                )
