"""Background firmware work expressed as scheduler tasks.

Garbage collection, delta compression and patrol scrub are each one
``(start_us, deadline_us) -> end_us`` window runner on the SSD — the
body the synchronous path spends predicted-idle gaps on.  The generators
here drive them as daemon tasks for the
:class:`~repro.sched.core.EventLoop`: run one bounded window, sleep for
the time it consumed (the firmware core is busy that long) or, when
there was nothing to do, for an idle poll interval.  Retention expiry
drops one segment per wakeup instead.

Each generator's only ``yield`` sits at the top level of its ``while
True``, below one ordinary synchronous call into the firmware: a window
finishes before any other task runs, and a daemon never returns (the
loop raises if one does).
"""

from repro.sched.core import Delay
from repro.timessd.ssd import TimeSSD

#: Poll intervals, in microseconds, when a background task finds no
#: work.  Chosen to stagger the daemons so their idle wakeups don't all
#: collide on the same timestamp.
GC_IDLE_US = 2_000
COMPRESS_IDLE_US = 3_000
SCRUB_IDLE_US = 10_000
EXPIRY_IDLE_US = 5_000


def background_gc_task(loop, ssd, idle_us=GC_IDLE_US):
    """Run opportunistic GC rounds whenever the free pool sags."""
    while True:
        now_us = loop.now_us
        # A window of exactly one round bound admits at most one round.
        end_us = ssd.background_collect(now_us, now_us + ssd.gc_round_cost_bound())
        yield Delay(end_us - now_us or idle_us)


def background_compress_task(loop, ssd, idle_us=COMPRESS_IDLE_US, budget_us=500):
    """Delta-compress retained page versions in bounded budgets."""
    while True:
        now_us = loop.now_us
        end_us = ssd.background_compress(now_us, now_us + budget_us)
        yield Delay(end_us - now_us or idle_us)


def retention_expiry_task(loop, ssd, target_window_us, idle_us=EXPIRY_IDLE_US):
    """Shrink the retention window toward ``target_window_us``.

    One segment per wakeup; the SSD's own floor guard keeps the window
    from ever dropping below ``config.retention_floor_us``.
    """
    while True:
        ssd.expire_retention_step(loop.now_us, target_window_us)
        yield Delay(idle_us)


def background_scrub_task(loop, ssd, idle_us=SCRUB_IDLE_US, budget_us=1_000):
    """Patrol-scrub a bounded slice of blocks per wakeup."""
    while True:
        now_us = loop.now_us
        end_us = ssd.scrubber.run_window(now_us, now_us + budget_us)
        yield Delay(end_us - now_us or idle_us)


def spawn_device_daemons(loop, ssd, retention_target_us=None):
    """Spawn the device's background tasks as daemons on ``loop``.

    Only the tasks the device can actually perform are spawned: scrub
    needs a patrol scrubber, compression and retention expiry need a
    :class:`TimeSSD`.  Retention expiry additionally needs an explicit
    ``retention_target_us`` — expiring history is a policy decision,
    not a default.  Returns the spawned :class:`Task` list.
    """
    tasks = [
        loop.spawn(
            background_gc_task(loop, ssd),
            name="bg-gc",
            root="background-gc",
            daemon=True,
        )
    ]
    if getattr(ssd, "scrubber", None) is not None:
        tasks.append(
            loop.spawn(
                background_scrub_task(loop, ssd),
                name="bg-scrub",
                root="background-scrub",
                daemon=True,
            )
        )
    if isinstance(ssd, TimeSSD):
        tasks.append(
            loop.spawn(
                background_compress_task(loop, ssd),
                name="bg-compress",
                root="background-compression",
                daemon=True,
            )
        )
        if retention_target_us is not None:
            tasks.append(
                loop.spawn(
                    retention_expiry_task(loop, ssd, retention_target_us),
                    name="bg-expiry",
                    root="retention-expiry",
                    daemon=True,
                )
            )
    return tasks
