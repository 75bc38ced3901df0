"""Shared infrastructure: simulated time, units and errors.

Everything in the simulator that needs a notion of time uses a
:class:`~repro.common.clock.SimClock` carrying integer microseconds, so
experiments are deterministic and independent of wall-clock speed.
"""

from repro.common.atomic import atomic_section
from repro.common.clock import SimClock
from repro.common.errors import (
    AddressError,
    DeviceFullError,
    FlashStateError,
    ReproError,
    RetentionViolationError,
)
from repro.common.units import (
    DAY_US,
    GIB,
    HOUR_US,
    KIB,
    MIB,
    MINUTE_US,
    MS_US,
    SECOND_US,
    format_bytes,
    format_duration,
)

__all__ = [
    "SimClock",
    "atomic_section",
    "ReproError",
    "AddressError",
    "DeviceFullError",
    "FlashStateError",
    "RetentionViolationError",
    "KIB",
    "MIB",
    "GIB",
    "MS_US",
    "SECOND_US",
    "MINUTE_US",
    "HOUR_US",
    "DAY_US",
    "format_bytes",
    "format_duration",
]
