"""Deterministic discrete-event scheduler and the async device tasks.

``repro.sched`` is the concurrency substrate of the event-driven device
core: a generator-based cooperative event loop on
:class:`~repro.common.clock.SimClock` (:mod:`repro.sched.core`) plus the
catalog of device tasks that run on it (:mod:`repro.sched.tasks`) —
NVMe slot workers and the background firmware work (GC, delta
compression, retention expiry, patrol scrub) re-expressed as daemon
tasks.  See docs/SCHEDULER.md for the event model and the determinism
argument.
"""

from repro.sched.core import (
    At,
    Delay,
    EventLoop,
    FifoTieBreak,
    SchedulerError,
    SeededTieBreak,
    Task,
)

__all__ = [
    "At",
    "Delay",
    "EventLoop",
    "FifoTieBreak",
    "SchedulerError",
    "SeededTieBreak",
    "Task",
]
