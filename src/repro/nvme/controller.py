"""The device-side NVMe command interpreter.

The paper "slightly modif[ies] the NVMe command interpreter and add[s] a
state query engine into the SSD firmware".  This controller is that
interpreter: standard reads/writes/TRIM go to the FTL, vendor opcodes go
to the state-query engine (TimeKits' device half).
"""

from dataclasses import dataclass

from repro.common.errors import (
    AddressError,
    DegradedModeError,
    DeviceFullError,
    InvalidPageError,
    ProgramFailureError,
    QueryError,
    RetentionViolationError,
    UncorrectableReadError,
)
from repro.flash.page import NULL_PPA
from repro.nvme.commands import AdminOpcode, NVMeCommand, NVMeCompletion, Opcode, StatusCode
from repro.timekits.api import TimeKits
from repro.timessd.ssd import TimeSSD


@dataclass
class IdentifyData:
    """Subset of the Identify Controller / Namespace data."""

    model: str
    logical_pages: int
    page_size: int
    retention_floor_us: int
    time_travel: bool


class NVMeController:
    """Dispatches NVMe commands against an SSD.

    Works with any :class:`~repro.ftl.ssd.BaseSSD`; the vendor opcodes
    additionally require a :class:`TimeSSD` (a regular device completes
    them with ``INVALID_OPCODE``, like real hardware would).
    """

    def __init__(self, ssd):
        self.ssd = ssd
        self._kits = TimeKits(ssd) if isinstance(ssd, TimeSSD) else None
        #: Shared with the SSD: per-opcode counts/latencies and
        #: per-status counts land in the device's metrics registry.
        self.obs = ssd.obs
        #: ``(opcode type, opcode, status) -> (opcode name, op counter,
        #: status counter, latency histogram or None)``, resolved on first
        #: completion; every opcode outside the two enums is ``None``.
        self._completion_metrics = {}

    # --- Completion accounting -------------------------------------------------

    def _complete(self, command, completion, t_us):
        """Record metrics/trace for a completion at ``t_us``; returns it."""
        opcode = command.opcode
        if type(opcode) not in (Opcode, AdminOpcode):
            opcode = None  # one INVALID name for whatever a host makes up
        status = completion.status
        # The type is part of the key: READ and GET_LOG_PAGE are both 2.
        key = (type(opcode), opcode, status)
        resolved = self._completion_metrics.get(key)
        if resolved is None:
            name = "INVALID" if opcode is None else opcode.name
            metrics = self.obs.metrics
            resolved = self._completion_metrics[key] = (
                name,
                metrics.counter("nvme.op.%s" % name),
                metrics.counter("nvme.status.%s" % status.name),
                metrics.histogram("nvme.op.%s_us" % name)
                if status is StatusCode.SUCCESS
                else None,
            )
        name, op_count, status_count, latency = resolved
        op_count.value += 1
        status_count.value += 1
        if latency is not None:
            latency.record(completion.latency_us)
        tr = self.obs.trace
        if tr.enabled:
            tr.emit(
                "nvme",
                name,
                t_us,
                status=status.name,
                latency_us=completion.latency_us,
            )
        return completion

    # --- Queues ---------------------------------------------------------------

    def submit(self, command):
        """Process one command synchronously; returns a completion.

        READ/WRITE/DSM/FLUSH are :meth:`execute_io` at the device clock,
        run to completion; admin and vendor commands advance the clock
        themselves.
        """
        clock = self.ssd.clock
        start = clock.now_us
        if not command.admin and command.opcode not in self._HANDLERS:
            completion, end = self.execute_io(command, start)
            clock.advance_to(end)
            return completion
        try:
            if command.admin:
                result = self._admin(command)
            else:
                _check_vendor_fields(command)
                result = self._HANDLERS[command.opcode](self, command)
        except _COMMAND_ERRORS as exc:
            completion = NVMeCompletion(_status_for(exc))
        else:
            completion = NVMeCompletion(
                StatusCode.SUCCESS, result, latency_us=clock.now_us - start
            )
        return self._complete(command, completion, clock.now_us)

    def execute_io(self, command, start_us):
        """Apply one I/O command with its own time cursor.

        The one interpreter of READ/WRITE/DSM/FLUSH, behind both
        :meth:`submit` and the async engine's slot workers: the command
        applies as one atomic step starting at ``start_us``, every page
        of it admitted by the FTL's ``serve_*_at``, and device errors map
        to NVMe statuses instead of raising.  Returns
        ``(completion, end_us)``; a failed command completes
        immediately, leaving ``end_us == start_us`` so the issuing slot
        does not lose its cursor.  Vendor commands are refused
        ``INVALID_OPCODE`` (they are host-serial by nature).
        """
        end = start_us
        try:
            result, end = self._apply_io(command, start_us)
        except _COMMAND_ERRORS as exc:
            completion = NVMeCompletion(_status_for(exc))
        else:
            completion = NVMeCompletion(
                StatusCode.SUCCESS, result, latency_us=end - start_us
            )
        return self._complete(command, completion, end), end

    def _apply_io(self, command, start_us):
        """Apply one I/O command starting at ``start_us``; returns
        ``(result, complete_us)``."""
        ssd = self.ssd
        opcode = command.opcode
        if opcode == Opcode.READ:  # tested first: the common case
            _check_fields(command)  # serve_reads_at checks the range
            return ssd.serve_reads_at(command.slba, command.nlb, start_us)
        if opcode == Opcode.FLUSH:
            return 0, start_us  # writes are durable on completion in this model
        if opcode != Opcode.WRITE and opcode != Opcode.DSM:
            raise _InvalidOpcode()
        self._check_range(command)
        if opcode == Opcode.WRITE:
            self._check_payload(command)
            lbas = range(command.slba, command.slba + command.nlb)
            return command.nlb, ssd.serve_writes_at(lbas, command.data, start_us)
        ssd.serve_trims_at(command.slba, command.nlb, start_us)
        return command.nlb, start_us

    # --- Admin commands ---------------------------------------------------------

    def _admin(self, command):
        if command.opcode == AdminOpcode.IDENTIFY:
            return IdentifyData(
                model="TimeSSD" if self._kits else "RegularSSD",
                logical_pages=self.ssd.logical_pages,
                page_size=self.ssd.device.geometry.page_size,
                retention_floor_us=getattr(
                    self.ssd.config, "retention_floor_us", 0
                ),
                time_travel=self._kits is not None,
            )
        if command.opcode == AdminOpcode.GET_LOG_PAGE:
            return {
                "host_pages_written": self.ssd.host_pages_written,
                "host_pages_read": self.ssd.host_pages_read,
                "write_amplification": self.ssd.write_amplification,
                "gc_runs": self.ssd.gc_runs,
                "background_gc_runs": self.ssd.background_gc_runs,
            }
        raise _InvalidOpcode()

    # --- Vendor commands ---------------------------------------------------------

    def _check_range(self, command):
        _check_fields(command)
        self.ssd.check_lpa_range(command.slba, command.nlb)

    def _check_payload(self, command):
        """Refuse a WRITE payload before any of its pages is admitted:
        one page per LBA, each one the device can store."""
        data = command.data
        if data is None:
            return  # token pages; a REAL device refuses the first one
        if not isinstance(data, (list, tuple)) or len(data) != command.nlb:
            raise _InvalidField()
        ssd = self.ssd
        if ssd.host_page_bytes is not None:
            for i, page in enumerate(data):
                ssd.check_host_page(command.slba + i, page)

    def _require_kits(self):
        if self._kits is None:
            raise _InvalidOpcode()
        return self._kits

    def _op_addr_query(self, command):
        self._check_range(command)
        return self._require_kits().addr_query(
            command.slba, command.nlb, command.t, threads=command.threads
        ).value

    def _op_addr_query_range(self, command):
        self._check_range(command)
        return self._require_kits().addr_query_range(
            command.slba, command.nlb, command.t, command.t2, threads=command.threads
        ).value

    def _op_addr_query_all(self, command):
        self._check_range(command)
        return self._require_kits().addr_query_all(
            command.slba, command.nlb, threads=command.threads
        ).value

    def _op_time_query(self, command):
        return self._require_kits().time_query(command.t, threads=command.threads).value

    def _op_time_query_range(self, command):
        return self._require_kits().time_query_range(
            command.t, command.t2, threads=command.threads
        ).value

    def _op_time_query_all(self, command):
        return self._require_kits().time_query_all(threads=command.threads).value

    def _op_rollback(self, command):
        self._check_range(command)
        return self._require_kits().rollback(
            command.slba, command.nlb, command.t, threads=command.threads
        ).value

    def _op_rollback_all(self, command):
        return self._require_kits().rollback_all(command.t, threads=command.threads).value

    def _op_retention_info(self, command):
        kits = self._require_kits()
        ssd = kits.ssd
        return {
            "retention_window_us": ssd.retention_window_us(),
            "retention_floor_us": ssd.config.retention_floor_us,
            "retained_pages": ssd.retained_pages,
            "live_bloom_segments": len(ssd.blooms.live_segments()),
            "delta_records": ssd.deltas.records_created,
        }

    _HANDLERS = {
        Opcode.ADDR_QUERY: _op_addr_query,
        Opcode.ADDR_QUERY_RANGE: _op_addr_query_range,
        Opcode.ADDR_QUERY_ALL: _op_addr_query_all,
        Opcode.TIME_QUERY: _op_time_query,
        Opcode.TIME_QUERY_RANGE: _op_time_query_range,
        Opcode.TIME_QUERY_ALL: _op_time_query_all,
        Opcode.ROLLBACK: _op_rollback,
        Opcode.ROLLBACK_ALL: _op_rollback_all,
        Opcode.RETENTION_INFO: _op_retention_info,
    }


class _InvalidOpcode(Exception):
    pass


class _InvalidField(Exception):
    pass


def _check_fields(command):
    """An LBA range is plain ints, at least one block long."""
    # ``type(...) is int`` refuses bools and non-integers alike.
    if type(command.slba) is not int or type(command.nlb) is not int or command.nlb < 1:
        raise _InvalidField()


def _check_vendor_fields(command):
    """A vendor command's timestamps are plain ints (TimeKits checks
    ``threads`` itself)."""
    if type(command.t) is not int or type(command.t2) is not int:
        raise _InvalidField()


#: Error to NVMe-status mapping shared by every submission path.
#: ``_status_for`` takes the first ``isinstance`` match, so order
#: matters: DegradedModeError and RetentionViolationError are sibling
#: refused-write DeviceFullErrors and must precede their base, which
#: catches the plain "no GC victim" full device.
_STATUS_BY_ERROR = (
    (AddressError, StatusCode.LBA_OUT_OF_RANGE),
    (DegradedModeError, StatusCode.DEGRADED_READ_ONLY),
    (RetentionViolationError, StatusCode.RETENTION_PROTECTED),
    (DeviceFullError, StatusCode.CAPACITY_EXCEEDED),
    (QueryError, StatusCode.INVALID_FIELD),
    (UncorrectableReadError, StatusCode.MEDIA_UNRECOVERED_READ),
    (ProgramFailureError, StatusCode.MEDIA_WRITE_FAULT),
    (_InvalidOpcode, StatusCode.INVALID_OPCODE),
    (_InvalidField, StatusCode.INVALID_FIELD),
    (InvalidPageError, StatusCode.INVALID_FIELD),
)
_COMMAND_ERRORS = tuple(error_cls for error_cls, _status in _STATUS_BY_ERROR)


def _status_for(exc):
    """NVMe status code for a caught ``_COMMAND_ERRORS`` instance."""
    return next(
        status for error_cls, status in _STATUS_BY_ERROR if isinstance(exc, error_cls)
    )
