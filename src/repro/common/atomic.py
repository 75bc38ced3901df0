"""Atomic-section annotations: state updates that must land together.

Every multi-step invariant-restoring sequence — program page, tag OOB,
update the mapping, insert into the index — runs to completion: a task
is only ever suspended at its own ``yield``, and firmware code cannot
yield to the scheduler (DESIGN.md, "Why interleavings are safe").  What
*can* cut such a sequence short is an exception.
:func:`atomic_section` names the sequences where that matters, and the
deep lint rule ``concurrency-atomic-raise-after-mutate``
(:mod:`repro.analysis.atomicity`) checks that each one either keeps
its mutations last — so a raise leaves nothing half-applied — or
declares ``restores_state=True`` with the reason written beside it.
Annotation is opt-in: the rule has no opinion about undecorated code.

The decorator is metadata only: it stores the annotation on the function
object and returns the function unchanged — zero wrappers, zero per-call
cost.  The analyzer reads the decoration from the AST (it never imports
this module at lint time).
"""

#: Attribute set on decorated functions (read by tests and tooling; the
#: static analyzer matches the decorator syntactically instead).
ATOMIC_ATTR = "__atomic_section__"


def atomic_section(reason, restores_state=False):
    """Mark a function whose state updates must land together.

    ``reason`` names the invariant the section maintains.
    ``restores_state=True`` waives the mutations-last discipline for
    sections that may raise partway through *because* they explicitly
    restore a consistent state before the exception escapes — the
    justification belongs in ``reason``.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError("atomic_section requires a non-empty reason string")
    if not isinstance(restores_state, bool):
        raise ValueError("restores_state must be a bool")

    def mark(fn):
        setattr(
            fn,
            ATOMIC_ATTR,
            {"reason": reason, "restores_state": restores_state},
        )
        return fn

    return mark
