"""Atomic-section annotations: state updates that must land together.

Every multi-step invariant-restoring sequence — program page, tag OOB,
update the mapping, insert into the index — runs to completion: a task
is only ever suspended at its own ``yield``, and firmware code cannot
yield to the scheduler (DESIGN.md, "Why interleavings are safe").  What
*can* cut such a sequence short is an exception.
:func:`atomic_section` names the sequences where that matters and says,
in its reason (and the comment beside it), why an exception partway
through leaves nothing half-applied: the mutations come last, or the
section restores a consistent state before the exception escapes.  The
runtime checks are tier-1 tests and the seeded firmware bugs of
``tests/analysis/test_mutation_ratchet.py`` that they must catch.

The decorator is metadata only: it stores the reason on the function
object and returns the function unchanged — zero wrappers, zero
per-call cost.
"""

#: Attribute set on decorated functions; its value is the reason.
ATOMIC_ATTR = "__atomic_section__"


def atomic_section(reason):
    """Mark a function whose state updates must land together.

    ``reason`` names the invariant the section maintains.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError("atomic_section requires a non-empty reason string")

    def mark(fn):
        setattr(fn, ATOMIC_ATTR, reason)
        return fn

    return mark
