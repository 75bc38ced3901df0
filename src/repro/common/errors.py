"""Exception hierarchy for the Project Almanac reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AddressError(ReproError):
    """A logical or physical address is out of range or malformed."""


class InvalidPageError(ReproError):
    """A host write carried page data the device cannot store.

    A REAL-content TimeSSD stores bytes and delta-compresses them, so
    every host page must be exactly one flash page of bytes; anything
    else is refused before the write is admitted.
    """


class FlashStateError(ReproError):
    """A flash operation violated NAND constraints.

    Examples: programming a page that is not erased, reading an erased
    page, or erasing at the wrong granularity.
    """


class DeviceFullError(ReproError):
    """The device ran out of free space and cannot accept the write.

    For a regular SSD this should never fire under correct GC; for TimeSSD
    it is the documented failure mode when the retention floor (three days
    by default) would otherwise be violated (paper §3.4).
    """


class RetentionViolationError(DeviceFullError):
    """TimeSSD refused an operation to protect the retention-floor guarantee.

    Raised when free space is exhausted but the oldest retained state is
    still inside the guaranteed retention window, so nothing may be
    reclaimed.  The device stops serving writes, which the paper treats as
    a deliberate, user-visible alarm condition.
    """

    def __init__(self, message, oldest_retained_us=None, floor_us=None):
        super().__init__(message)
        self.oldest_retained_us = oldest_retained_us
        self.floor_us = floor_us


class DegradedModeError(DeviceFullError):
    """The device is in read-only degraded mode and refused a mutation.

    Firmware enters degraded mode when it can no longer honor its own
    guarantees — the free pool shrank below usable capacity (bad-block
    retirement), or a write failed even after the retry budget.  Reads
    and storage-state queries keep working; writes and trims fail fast
    with this error until :meth:`BaseSSD.clear_degraded` (or a reboot via
    ``reset_volatile``) and the underlying condition is resolved.
    """

    def __init__(self, reason):
        super().__init__("device is in read-only degraded mode: %s" % reason)
        self.reason = reason


class FlashFaultError(ReproError):
    """Base class for media-level flash faults (see :mod:`repro.faults`)."""


class ProgramFailureError(FlashFaultError):
    """A page program failed at the media level.

    ``permanent`` distinguishes a grown bad block (all further programs
    to the block fail; firmware must retire it) from a transient failure
    (firmware retries on a fresh page).  Real NAND reports both via the
    program status register.
    """

    def __init__(self, ppa, permanent=False):
        kind = "permanent" if permanent else "transient"
        super().__init__("%s program failure at PPA %d" % (kind, ppa))
        self.ppa = ppa
        self.permanent = permanent


class EraseFailureError(FlashFaultError):
    """A block erase failed at the media level; the block has gone bad."""

    def __init__(self, pba):
        super().__init__("erase failure at PBA %d; block is bad" % pba)
        self.pba = pba


class UncorrectableReadError(FlashFaultError):
    """Raw bit errors exceeded the ECC correction budget for one read."""

    def __init__(self, ppa, bit_errors=None, budget=None, lost=False):
        if lost:
            message = (
                "uncorrectable read: the only copy (PPA %d) was lost to a "
                "media error during migration; rewrite the LBA to clear" % ppa
            )
        elif bit_errors is None:
            message = "uncorrectable read at PPA %d (injected)" % ppa
        else:
            message = "uncorrectable read at PPA %d: %d bit errors > ECC budget %d" % (
                ppa,
                bit_errors,
                budget,
            )
        super().__init__(message)
        self.ppa = ppa
        self.bit_errors = bit_errors
        self.budget = budget


class PowerCutError(ReproError):
    """Power was cut at an enumerated flash-op crash point.

    Raised by the fault-injection hooks *before* the interrupted flash
    operation commits (a torn program persists its partial page first).
    Everything already on flash stays; all volatile firmware state is
    lost — recover with ``reset_volatile`` + ``rebuild_from_flash``.
    """

    def __init__(self, message, op_index=None):
        super().__init__(message)
        self.op_index = op_index


class QueryError(ReproError):
    """A TimeKits query was malformed or targeted unavailable state."""


class FileSystemError(ReproError):
    """A file-system substrate operation failed (no such file, no space...)."""
