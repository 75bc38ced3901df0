"""almanac-lint: repo-specific static analysis for the simulator.

The paper's correctness argument rests on discipline the code can
silently break: all time flows through the simulated clock (never
wall-clock), all randomness is explicitly seeded per workload, and only
the FTL layer may touch raw flash program/erase APIs.  The runtime fsck
(:mod:`repro.timessd.verify`) catches the *consequences* of a violation
after a long replay; this package catches the violation itself, at the
source line, before anything runs.

Four rule packs, all run on every lint (see ``docs/ANALYSIS.md``):

* **determinism** — no wall-clock reads, no shared global RNG, no
  unseeded ``random.Random()``;
* **layering** — the DESIGN.md layer order for ``repro.*`` imports,
  no flash program/erase calls outside the FTL, no package cycles, no
  private names used across packages;
* **hygiene** — mutable default arguments, bare ``except``, ``print()``
  in library modules, mixed unit suffixes in arithmetic;
* **obs** — the metric catalog in ``docs/OBSERVABILITY.md`` matches
  the metrics the code emits.

Run it with ``python -m repro.analysis src/repro`` or ``repro lint``;
suppress a finding in place with ``# almanac: ignore[rule-id]``.
"""

from repro.analysis.core import (
    RULES,
    SourceModule,
    Violation,
    all_rules,
    analyze_paths,
)

__all__ = [
    "RULES",
    "SourceModule",
    "Violation",
    "all_rules",
    "analyze_paths",
]
