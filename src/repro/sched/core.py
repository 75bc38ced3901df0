"""Deterministic discrete-event scheduler on :class:`SimClock`.

The event loop is the concurrency substrate the async device core runs
on (docs/SCHEDULER.md): an event heap keyed by ``(t_us, tie, seq)`` and
cooperative tasks written as plain generators.  A task yields *wait
instructions* — :class:`Delay` or :class:`At` — and the loop resumes it
when the wait is satisfied, advancing the shared clock to each event's
timestamp.

Determinism is the design center, not an afterthought:

* Every event carries a monotonically increasing sequence number, so
  two events at the same microsecond have a total order (FIFO by
  default).  There is no wall clock, no global RNG, no id()-ordering.
* The tie component of the heap key comes from a pluggable
  :class:`TieBreak`.  The default (:class:`FifoTieBreak`) preserves
  submission order; :class:`SeededTieBreak` permutes same-timestamp
  events with a pure integer hash so the schedule fuzzer
  (``tests/sched``) can explore alternative legal interleavings while
  staying bit-reproducible per seed.
* A task runs until its own next ``yield``, and the firmware layers
  below ``repro.sched`` cannot import a wait instruction
  (``layering-order``), so every firmware call a task makes finishes
  before any other task runs (DESIGN.md, "Why interleavings are safe").
  The loop rejects what would break that protocol: a yield that is not
  a wait instruction, and a daemon that returns.
"""

import heapq

from repro.common.errors import ReproError


class SchedulerError(ReproError):
    """A task misused the scheduler (bad yield, bad wait argument, a
    daemon that returned)."""


# --- Wait instructions ---------------------------------------------------------
#
# Instances of these classes are what tasks yield.  They are deliberately
# tiny value objects: the loop interprets them, tasks never call back
# into the loop directly.


class Delay:
    """Resume this task ``delta_us`` microseconds from now."""

    __slots__ = ("delta_us",)

    def __init__(self, delta_us):
        if not isinstance(delta_us, int) or isinstance(delta_us, bool):
            raise SchedulerError(
                "Delay takes integer microseconds, got %r" % (delta_us,)
            )
        if delta_us < 0:
            raise SchedulerError("cannot delay by a negative duration")
        self.delta_us = delta_us


class At:
    """Resume this task at ``t_us`` (immediately if already past)."""

    __slots__ = ("t_us",)

    def __init__(self, t_us):
        if type(t_us) is not int:  # a bool, a float, an int subclass: no
            raise SchedulerError(
                "At takes an integer microsecond timestamp, got %r" % (t_us,)
            )
        self.t_us = t_us


# --- Tie-breaking --------------------------------------------------------------


class FifoTieBreak:
    """Same-timestamp events run in submission order (the default)."""

    def key(self, t_us, seq):
        return 0


class SeededTieBreak:
    """Permute same-timestamp event order with a pure integer hash.

    The schedule fuzzer's knob: each seed induces one deterministic
    alternative ordering of events that share a timestamp.  The mix is
    a splitmix64-style avalanche over ``(seed, t_us, seq)`` — no
    ``random`` module, no process-dependent hashing — so the same seed
    explores the same interleaving on every run and platform.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SchedulerError("tie-break seed must be an int")
        self.seed = seed

    def key(self, t_us, seq):
        z = (self.seed * 0x9E3779B97F4A7C15 + t_us * 0xBF58476D1CE4E5B9
             + seq * 0x94D049BB133111EB) & self._MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)


# --- Tasks ---------------------------------------------------------------------


class Task:
    """One cooperative task: a generator plus its scheduling state."""

    __slots__ = (
        "name",
        "root",
        "gen",
        "daemon",
        "done",
        "result",
    )

    def __init__(self, gen, name, root, daemon):
        self.gen = gen
        self.name = name
        #: Which kind of work this task does (trace label).
        self.root = root
        #: Daemon tasks never keep the loop alive: once every non-daemon
        #: task has finished, pending daemon events are discarded.
        self.daemon = daemon
        self.done = False
        self.result = None

    def __repr__(self):
        state = "done" if self.done else "pending"
        return "Task(%s, %s)" % (self.name, state)


# --- The loop ------------------------------------------------------------------


class EventLoop:
    """Runs tasks against a shared :class:`SimClock` until quiescence."""

    def __init__(self, clock, tie_break=None, obs=None):
        self.clock = clock
        self._heap = []
        self._seq = 0
        self._tie = tie_break if tie_break is not None else FifoTieBreak()
        #: Observability scope (metrics + trace) or None; sched events
        #: land in the ``sched`` trace category.
        self.obs = obs
        #: Non-daemon tasks not yet finished: the loop's liveness count.
        self._live = 0
        self.events_dispatched = 0
        self.tasks_spawned = 0

    @property
    def now_us(self):
        return self.clock.now_us

    # --- Spawning and scheduling ------------------------------------------

    def spawn(self, gen, name, root="task", daemon=False, at_us=None):
        """Register a generator as a task; it first runs at ``at_us``.

        Returns the :class:`Task`.  ``at_us`` defaults to now; a time in
        the past is clamped to now (the loop never travels backwards).
        """
        task = Task(gen, name, root, daemon)
        self.tasks_spawned += 1
        if not daemon:
            self._live += 1
        start = self.now_us if at_us is None else max(self.now_us, at_us)
        self._seq += 1
        tie = self._tie.key(start, self._seq)
        heapq.heappush(self._heap, (start, tie, self._seq, task))
        self._trace("task-spawn", start, task=name, root=root)
        return task

    # --- Running ----------------------------------------------------------

    def run(self, until_us=None):
        """Dispatch events until no non-daemon work remains.

        With ``until_us`` the loop additionally stops before dispatching
        any event past that time (the event stays queued).  Returns the
        number of events dispatched by this call.

        One event resumes one task and queues its next one, inline: this
        is the simulator's innermost loop.
        """
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        clock = self.clock
        advance_to = clock.advance_to
        # FIFO's key is the constant 0: skip the call, keep the value.
        key = None if type(self._tie) is FifoTieBreak else self._tie.key
        before = self.events_dispatched
        while heap and self._live > 0:
            t_us, _tie, _seq, task = heap[0]
            if until_us is not None and t_us > until_us:
                break
            heappop(heap)
            if task.done:
                continue
            advance_to(t_us)
            self.events_dispatched += 1
            try:
                instruction = next(task.gen)
            except StopIteration as stop:
                self._finish(task, stop.value)
                continue
            if type(instruction) is At:
                # max(clock.now_us, t_us), read after the step: the step
                # may have moved the clock.
                t_us = instruction.t_us
                now = clock.now_us
                if now > t_us:
                    t_us = now
            elif isinstance(instruction, Delay):
                t_us = clock.now_us + instruction.delta_us
            else:
                raise SchedulerError(
                    "task %s yielded %r; tasks must yield a wait instruction"
                    % (task.name, instruction)
                )
            seq = self._seq = self._seq + 1
            heappush(heap, (t_us, 0 if key is None else key(t_us, seq), seq, task))
        return self.events_dispatched - before

    def _finish(self, task, result):
        if task.daemon:
            raise SchedulerError(
                "daemon %s returned; a daemon runs until the loop drops "
                "it, and one that finishes stops its background service "
                "silently" % task.name
            )
        task.done = True
        task.result = result
        self._live -= 1
        self._trace("task-done", self.now_us, task=task.name, root=task.root)

    # --- Introspection ----------------------------------------------------

    @property
    def idle(self):
        """True when no non-daemon task has a pending event."""
        return self._live == 0

    def pending_events(self):
        """Number of queued (undispatched) events, daemons included."""
        return len(self._heap)

    def _trace(self, name, t_us, **detail):
        if self.obs is None:
            return
        tr = self.obs.trace
        if tr.enabled:
            tr.emit("sched", name, t_us, **detail)

    def __repr__(self):
        return "EventLoop(t=%d us, %d live, %d queued)" % (
            self.now_us,
            self._live,
            len(self._heap),
        )
