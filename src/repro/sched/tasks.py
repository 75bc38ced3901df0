"""Background firmware work expressed as scheduler tasks.

Garbage collection is one ``(start_us, deadline_us) -> end_us`` window
runner on the SSD — the body the synchronous path spends predicted-idle
gaps on.  The GC generator here drives it as a daemon task for the
:class:`~repro.sched.core.EventLoop`: run one bounded window, sleep for
the time it consumed (the firmware core is busy that long) or, when
there was nothing to do, for an idle poll interval.  Retention expiry
drops one segment per wakeup instead.  Delta compression and patrol
scrub have no daemon: their one driver, on every route, is the idle
chain in ``BaseSSD._before_host_request`` (docs/SCHEDULER.md).

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
EXPIRY_IDLE_US = 5_000


def background_gc_task(loop, ssd, idle_us=GC_IDLE_US):
    """Run opportunistic GC rounds whenever the free pool sags."""
    while True:
        now_us = loop.now_us
        # A window of exactly one round bound admits at most one round.
        end_us = ssd.background_collect(now_us, now_us + ssd.gc_round_cost_bound())
        yield Delay(end_us - now_us or idle_us)


def retention_expiry_task(loop, ssd, target_window_us, idle_us=EXPIRY_IDLE_US):
    """Shrink the retention window toward ``target_window_us``.

    One segment per wakeup; the SSD's own floor guard keeps the window
    from ever dropping below ``config.retention_floor_us``.
    """
    while True:
        ssd.expire_retention_step(loop.now_us, target_window_us)
        yield Delay(idle_us)


def spawn_device_daemons(loop, ssd, retention_target_us=None):
    """Spawn the device's background tasks as daemons on ``loop``.

    Retention expiry needs a :class:`TimeSSD` and an explicit
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
    if isinstance(ssd, TimeSSD) and retention_target_us is not None:
        tasks.append(
            loop.spawn(
                retention_expiry_task(loop, ssd, retention_target_us),
                name="bg-expiry",
                root="retention-expiry",
                daemon=True,
            )
        )
    return tasks
