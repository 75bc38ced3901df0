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
    ProgramFailureError,
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
        self.commands_processed = 0
        #: Shared with the SSD: per-opcode counts/latencies and
        #: per-status counts land in the device's metrics registry.
        self.obs = ssd.obs

    # --- Completion accounting -------------------------------------------------

    def _complete(self, command, completion):
        """Record metrics/trace for a completion, then return it."""
        opcode = getattr(command.opcode, "name", str(command.opcode))
        metrics = self.obs.metrics
        metrics.counter("nvme.op.%s" % opcode).inc()
        metrics.counter("nvme.status.%s" % completion.status.name).inc()
        if completion.status is StatusCode.SUCCESS:
            metrics.histogram("nvme.op.%s_us" % opcode).record(
                completion.latency_us
            )
        tr = self.obs.trace
        if tr.enabled:
            tr.emit(
                "nvme",
                opcode,
                self.ssd.clock.now_us,
                status=completion.status.name,
                latency_us=completion.latency_us,
            )
        return completion

    # --- Queues ---------------------------------------------------------------

    def submit(self, command):
        """Process one command synchronously; returns a completion."""
        self.commands_processed += 1
        start = self.ssd.clock.now_us
        try:
            if command.admin:
                result = self._admin(command)
            else:
                result = self._io(command)
        except _COMMAND_ERRORS as exc:
            return self._complete(command, NVMeCompletion(_status_for(exc)))
        return self._complete(
            command,
            NVMeCompletion(
                StatusCode.SUCCESS, result, latency_us=self.ssd.clock.now_us - start
            ),
        )

    def execute_io(self, command, start_us):
        """Apply one I/O command with its own time cursor.

        The executor behind the async engine's slot workers: the command
        applies as one atomic step starting at ``start_us``, and device
        errors map to NVMe statuses instead of raising.  Returns
        ``(completion, end_us)``; a failed command completes
        immediately, leaving ``end_us == start_us`` so the issuing slot
        does not lose its cursor.  Only READ/WRITE/DSM are accepted
        (vendor commands are host-serial by nature).
        """
        self.commands_processed += 1
        try:
            self._check_range(command)
            result, end = self._apply_io(command, start_us)
        except _COMMAND_ERRORS as exc:
            return (
                self._complete(command, NVMeCompletion(_status_for(exc))),
                start_us,
            )
        return (
            self._complete(
                command,
                NVMeCompletion(
                    StatusCode.SUCCESS, result, latency_us=end - start_us
                ),
            ),
            end,
        )

    def _apply_io(self, command, start_us):
        """Apply one queued command starting at ``start_us``; returns
        ``(result, complete_us)``."""
        ssd = self.ssd
        t = start_us
        if command.opcode == Opcode.READ:
            pages = []
            for i in range(command.nlb):
                data, t = ssd.serve_read_at(command.slba + i, t)
                pages.append(data)
            return pages, t
        if command.opcode == Opcode.WRITE:
            ssd.ensure_writable()
            for i in range(command.nlb):
                data = command.data[i] if command.data is not None else None
                t = ssd.serve_write_at(command.slba + i, data, t)
            return command.nlb, t
        if command.opcode == Opcode.DSM:
            ssd.ensure_writable()
            for i in range(command.nlb):
                ssd.serve_trim_at(command.slba + i, t)
            return command.nlb, t
        raise _InvalidOpcode()

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

    # --- I/O and vendor commands -------------------------------------------------

    def _io(self, command):
        handler = self._HANDLERS.get(command.opcode)
        if handler is None:
            raise _InvalidOpcode()
        return handler(self, command)

    def _check_range(self, command):
        if command.nlb < 1:
            raise _InvalidField()
        if command.slba < 0 or command.slba + command.nlb > self.ssd.logical_pages:
            raise AddressError("LBA range out of bounds")

    def _require_kits(self):
        if self._kits is None:
            raise _InvalidOpcode()
        return self._kits

    def _op_read(self, command):
        self._check_range(command)
        data, _ = self.ssd.read_range(command.slba, command.nlb)
        return data

    def _op_write(self, command):
        self._check_range(command)
        self.ssd.write_range(command.slba, command.nlb, command.data)
        return command.nlb

    def _op_trim(self, command):
        self._check_range(command)
        for i in range(command.nlb):
            self.ssd.trim(command.slba + i)
        return command.nlb

    def _op_flush(self, command):
        return 0  # writes are durable on completion in this model

    def _op_addr_query(self, command):
        self._check_range(command)
        return self._require_kits().addr_query(
            command.slba, command.nlb, command.t, threads=command.threads
        ).value

    def _op_addr_query_range(self, command):
        self._check_range(command)
        if command.t > command.t2:
            raise _InvalidField()
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
        if command.t > command.t2:
            raise _InvalidField()
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
        Opcode.READ: _op_read,
        Opcode.WRITE: _op_write,
        Opcode.DSM: _op_trim,
        Opcode.FLUSH: _op_flush,
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


#: Error to NVMe-status mapping shared by every submission path.
#: Order matters only for documentation: DegradedModeError and
#: RetentionViolationError are sibling refused-write DeviceFullErrors,
#: so neither shadows the other in the ``isinstance`` walk below.
_STATUS_BY_ERROR = (
    (AddressError, StatusCode.LBA_OUT_OF_RANGE),
    (DegradedModeError, StatusCode.DEGRADED_READ_ONLY),
    (RetentionViolationError, StatusCode.RETENTION_PROTECTED),
    (UncorrectableReadError, StatusCode.MEDIA_UNRECOVERED_READ),
    (ProgramFailureError, StatusCode.MEDIA_WRITE_FAULT),
    (_InvalidOpcode, StatusCode.INVALID_OPCODE),
    (_InvalidField, StatusCode.INVALID_FIELD),
)
_COMMAND_ERRORS = tuple(error_cls for error_cls, _status in _STATUS_BY_ERROR)


def _status_for(exc):
    """NVMe status code for a caught ``_COMMAND_ERRORS`` instance."""
    return next(
        status for error_cls, status in _STATUS_BY_ERROR if isinstance(exc, error_cls)
    )
