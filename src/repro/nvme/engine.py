"""Event-driven NVMe engine: multi-queue submission with real overlap.

This is the async device core (docs/SCHEDULER.md): queue depth is
modelled by running the per-command executor under the deterministic
event loop.

* The host enqueues commands onto one or more :class:`QueuePair` rings.
* ``queue_depth`` *slot workers* per pair — cooperative tasks labelled
  ``host-serve`` — each fetch the next submission, apply it in one
  synchronous :meth:`NVMeController.execute_io` call, then sleep until
  the command's device-time completion before posting to the
  completion ring.  That sleep is the worker's only ``yield``; engine
  state read before it (``_inflight``) is re-read after it.
* Background firmware tasks (GC, retention expiry) spawned
  through :func:`repro.sched.tasks.spawn_device_daemons` interleave
  with the workers at those sleeps only.

Completions therefore post *out of submission order* whenever a later
command finishes first, and throughput scales with queue depth because
workers overlap on the device's channel/chip timelines.  With
``queue_depth=1`` the single worker's fetch→execute→sleep chain is a
plain serial ``execute_io`` loop cursor-for-cursor, which
``tests/sched/test_async_nvme.py`` pins down.
"""

from itertools import islice

from repro.nvme.controller import NVMeController
from repro.nvme.queues import QueuePair
from repro.sched.core import At, EventLoop
from repro.sched.tasks import spawn_device_daemons


class AsyncNVMeEngine:
    """Multi-queue NVMe submission on the discrete-event scheduler."""

    def __init__(self, ssd, queue_depth=8, queue_pairs=1, tie_break=None,
                 controller=None):
        if queue_depth < 1:
            raise ValueError("queue depth must be at least 1")
        if queue_pairs < 1:
            raise ValueError("need at least one queue pair")
        self.ssd = ssd
        self.controller = controller if controller is not None else NVMeController(ssd)
        self.loop = EventLoop(ssd.clock, tie_break=tie_break, obs=ssd.obs)
        self.queue_depth = queue_depth
        self.pairs = [QueuePair(i) for i in range(queue_pairs)]
        self.obs = ssd.obs
        self._next_cid = 0
        #: The first cid the next :meth:`pump` returns.
        self._pumped = 0
        self._inflight = 0
        #: High-water mark of commands simultaneously in flight across
        #: all pairs — the overlap-invariant tests' witness that QD > 1
        #: produces real concurrency, not just reordering.
        self.inflight_max = 0
        self.daemons = []
        #: Every pump's ring entries ``(cid, completion, t_us)``, in post order.
        self._log = []

    # --- Host side --------------------------------------------------------

    def install_daemons(self, retention_target_us=None):
        """Spawn the device's background tasks on this engine's loop.

        Idempotent per engine: daemons persist across :meth:`pump`
        calls, so installing twice would double the background work.
        """
        if not self.daemons:
            self.daemons = spawn_device_daemons(
                self.loop, self.ssd, retention_target_us=retention_target_us
            )
        return self.daemons

    def enqueue(self, commands):
        """Put a sequence of commands on the rings round-robin (cid ``c``
        on pair ``c % len(pairs)``); returns their cids.

        Each ring takes its share in one ``extend`` of ``(cid, command)``
        entries, read from ``commands`` in place.
        """
        first = self._next_cid
        cids = range(first, first + len(commands))
        pairs = self.pairs
        stride = len(pairs)
        for index, pair in enumerate(pairs):
            offset = (index - first) % stride
            mine = cids[offset::stride]
            pair.sq.extend(zip(mine, islice(commands, offset, None, stride)))
            pair.submitted += len(mine)
        self._next_cid = cids.stop
        return list(cids)

    def pump(self):
        """Drain every ring to completion under the event loop.

        Spawns ``queue_depth`` slot workers per pair, runs the loop to
        quiescence, and returns ``(completions, elapsed_us)`` with
        completions in *submission* (cid) order — the per-ring
        completion-order record stays available via
        :meth:`completion_log`.  A pump that raised ends the engine: the
        command that raised never posts.
        """
        arrival = self.loop.now_us
        for pair in self.pairs:
            workers = min(self.queue_depth, len(pair.sq))
            for slot in range(workers):
                self.loop.spawn(
                    self._slot_worker(pair),
                    name="nvme-q%d-slot%d" % (pair.index, slot),
                    root="host-serve",
                )
        self.loop.run()
        # This pump's cids are consecutive from the first one enqueued
        # since the last pump: each completion has its slot, no sort.
        first, self._pumped = self._pumped, self._next_cid
        completions = [None] * (self._next_cid - first)
        end = arrival
        for pair in self.pairs:
            posted = pair.pop_completions()
            self._log.extend(posted)
            for cid, completion, t_us in posted:
                completions[cid - first] = completion
                if t_us > end:
                    end = t_us
        self.ssd.clock.advance_to(end)
        metrics = self.obs.metrics
        metrics.gauge("nvme.engine.inflight_max").set(self.inflight_max)
        metrics.gauge("nvme.engine.events").set(self.loop.events_dispatched)
        metrics.gauge("nvme.engine.tasks").set(self.loop.tasks_spawned)
        return completions, end - arrival

    def process(self, commands):
        """Enqueue then pump: the one-call submission path."""
        self.enqueue(commands)
        return self.pump()

    def completion_log(self):
        """(cid, status, t_us) triples in the order completions posted."""
        return [(cid, completion.status, t_us) for cid, completion, t_us in self._log]

    # --- Device side ------------------------------------------------------

    def _slot_worker(self, pair):
        """One queue slot: fetch, apply, occupy device time, post."""
        clock = self.loop.clock
        execute_io = self.controller.execute_io
        sq = pair.sq
        post = pair.post
        while sq:
            cid, command = sq.popleft()
            self._inflight += 1
            if self._inflight > self.inflight_max:
                self.inflight_max = self._inflight
            start = clock.now_us
            completion, end = execute_io(command, start)
            if end > start:
                yield At(end)
            self._inflight -= 1
            post(cid, completion, clock.now_us)
