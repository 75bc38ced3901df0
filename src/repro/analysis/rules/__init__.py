"""Built-in rule packs.  Importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401  (import-for-effect)
    determinism,
    hygiene,
    layering,
    observability,
    suppressions,
    whole_program,
)
