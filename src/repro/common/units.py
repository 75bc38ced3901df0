"""Size and time units used throughout the simulator.

All simulated time is carried as integer microseconds.  All sizes are bytes.
"""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MS_US = 1_000
SECOND_US = 1_000_000
MINUTE_US = 60 * SECOND_US
HOUR_US = 60 * MINUTE_US
DAY_US = 24 * HOUR_US


def format_bytes(n):
    """Render a byte count human-readably, e.g. ``format_bytes(3 * MIB)``."""
    if n < 0:
        raise ValueError("byte count must be non-negative, got %r" % (n,))
    for unit, name in ((GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if n >= unit:
            return "%.2f %s" % (n / unit, name)
    return "%d B" % n


def format_duration(us):
    """Render a microsecond duration human-readably."""
    if us < 0:
        raise ValueError("duration must be non-negative, got %r" % (us,))
    if us >= DAY_US:
        return "%.2f days" % (us / DAY_US)
    if us >= HOUR_US:
        return "%.2f h" % (us / HOUR_US)
    if us >= MINUTE_US:
        return "%.2f min" % (us / MINUTE_US)
    if us >= SECOND_US:
        return "%.3f s" % (us / SECOND_US)
    if us >= MS_US:
        return "%.3f ms" % (us / MS_US)
    return "%d us" % us
