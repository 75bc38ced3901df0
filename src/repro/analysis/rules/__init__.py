"""Built-in rule packs: each module holds its pack's checks, and
:data:`repro.analysis.core.RULES` lists them."""
