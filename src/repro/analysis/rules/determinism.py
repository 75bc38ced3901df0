"""Determinism rules: no wall clocks, no shared global RNG.

A trace replay must give bit-identical results run-to-run; the two ways
code silently breaks that are reading host time (``time.time()``,
``datetime.now()``) and drawing from implicitly-seeded randomness (the
``random`` module's global functions, ``random.Random()`` with no seed,
or ``random.SystemRandom``, which reads OS entropy whatever it is
given).  Simulated time comes from :class:`repro.common.clock.SimClock`;
randomness comes from an explicit ``random.Random(seed)`` threaded
through constructors.

Import aliases are whole-file: a name bound by any import anywhere in
the module counts everywhere in it (``SourceModule.import_aliases`` /
``from_imports``).
"""

from repro.analysis.imports import dotted

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

#: The ``random`` classes: instances, not the shared global RNG.
_RNG_CLASSES = frozenset({"Random", "SystemRandom"})

_USE_SIMCLOCK = "; use the shared SimClock (repro.common.clock)"


def wallclock(module, project):
    time_aliases = module.import_aliases.get("time", set())
    dt_module_aliases = module.import_aliases.get("datetime", set())
    from_time = {
        local: orig
        for local, orig in module.from_imports.get("time", {}).items()
        if orig in _TIME_ATTRS
    }
    from_datetime = module.from_imports.get("datetime", {})
    for node in module.calls:
        chain = dotted(node.func)
        if not chain:
            continue
        head, tail = chain[0], chain[1:]
        # time.time(), time.sleep(), t.monotonic() with `import time as t`
        if head in time_aliases and len(tail) == 1 and tail[0] in _TIME_ATTRS:
            yield node, "wall-clock call time.%s()%s" % (tail[0], _USE_SIMCLOCK)
        # from time import time / monotonic ...
        elif head in from_time and not tail:
            yield node, "wall-clock call time.%s()%s" % (
                from_time[head],
                _USE_SIMCLOCK,
            )
        # datetime.datetime.now(), datetime.date.today()
        elif (
            head in dt_module_aliases
            and len(tail) == 2
            and tail[1] in _DATETIME_ATTRS
        ):
            yield node, "wall-clock call datetime.%s.%s()%s" % (
                tail[0],
                tail[1],
                _USE_SIMCLOCK,
            )
        # from datetime import datetime; datetime.now()
        elif (
            head in from_datetime
            and len(tail) == 1
            and tail[0] in _DATETIME_ATTRS
        ):
            yield node, "wall-clock call %s.%s()%s" % (
                from_datetime[head],
                tail[0],
                _USE_SIMCLOCK,
            )


def global_random(module, project):
    # `from random import randrange` smuggles the global RNG in under a
    # bare name: flag the import itself.
    for node in module.imports:
        if getattr(node, "module", None) != "random":
            continue
        for alias in node.names:
            if alias.name not in _RNG_CLASSES:
                yield node, (
                    "from random import %s binds the shared global "
                    "RNG; import random and use an explicit "
                    "random.Random(seed)" % alias.name
                )
    aliases = module.import_aliases.get("random", set())
    for node in module.calls:
        chain = dotted(node.func)
        if (
            chain
            and len(chain) == 2
            and chain[0] in aliases
            and chain[1] not in _RNG_CLASSES
        ):
            yield node, (
                "random.%s() draws from the shared global RNG; use an "
                "explicit random.Random(seed) instance" % chain[1]
            )


def unseeded_rng(module, project):
    aliases = module.import_aliases.get("random", set())
    from_random = module.from_imports.get("random", {})
    for node in module.calls:
        chain = dotted(node.func)
        if not chain:
            continue
        if len(chain) == 2 and chain[0] in aliases:
            cls = chain[1]
        elif len(chain) == 1:
            cls = from_random.get(chain[0])
        else:
            continue
        if cls == "SystemRandom":
            yield node, (
                "random.SystemRandom() reads OS entropy and ignores any "
                "seed; use an explicit random.Random(seed)"
            )
        elif cls == "Random" and not node.args and not node.keywords:
            yield node, (
                "random.Random() without a seed is seeded from the OS; "
                "pass an explicit per-workload seed"
            )
