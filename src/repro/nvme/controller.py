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
from repro.nvme.commands import AdminOpcode, NVMeCompletion, Opcode, StatusCode
from repro.obs import LatencyHistogram
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


_RANGE = ("slba", "nlb")
_SUCCESS = StatusCode.SUCCESS
_FOLD_AT = LatencyHistogram.FOLD_AT


def _vendor(method):
    """A vendor command's handler: the TimeKits method named ``method``
    over the command's fields, in table order; it advances the clock
    itself.  Looked up per call, so a wrapper later installed on the
    class (the ledger's tracing spans) still sees the call."""
    return lambda controller, *args: getattr(controller._kits, method)(*args).value


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
        #: ``(opcode name, status) -> (op counter, status counter, latency
        #: histogram or None)``, resolved on first completion.
        self._completion_metrics = {}
        #: ``opcode name -> (op counter, SUCCESS counter, latency
        #: histogram)``: a success's three handles, resolved on its first.
        self._success_metrics = {}
        #: The commands this device decodes, per route: ``queue ->
        #: {member: (handler, fields, queued, name, ranged)}`` from
        #: :attr:`_COMMANDS`, less the vendor opcodes (0xC0 up) when no
        #: TimeKits engine is behind them; the queued route takes the
        #: I/O rows only.
        self._serial = {AdminOpcode: {}, Opcode: {}}
        self._queued = {AdminOpcode: {}, Opcode: {}}
        for (queue, member), (handler, fields, queued) in self._COMMANDS.items():
            if self._kits is None and member >= 0xC0:
                continue
            row = (handler, fields, queued, member.name, "nlb" in fields)
            self._serial[queue][member] = row
            if queued:
                self._queued[queue][member] = row

    # --- Completion accounting -------------------------------------------------

    def _complete(self, name, completion, t_us):
        """Record metrics/trace for a completion at ``t_us``; returns it.
        :meth:`_execute` accounts a success in place and calls this for
        every other completion.

        ``name`` is the opcode's, or ``INVALID`` for a command the decode
        refused: a host choosing opcode values must not choose metric
        names.
        """
        status = completion.status
        resolved = self._completion_metrics.get((name, status))
        if resolved is None:
            resolved = self._completion_metrics[name, status] = self._resolve(
                name, status
            )
        op_count, status_count, latency = resolved
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

    def _resolve(self, name, status):
        """``(op counter, status counter, latency histogram or None)`` of a
        ``name`` completion with ``status``; only a success has a latency."""
        metrics = self.obs.metrics
        return (
            metrics.counter("nvme.op.%s" % name),
            metrics.counter("nvme.status.%s" % status.name),
            metrics.histogram("nvme.op.%s_us" % name)
            if status is _SUCCESS
            else None,
        )

    # --- Queues ---------------------------------------------------------------

    def submit(self, command):
        """Process one command synchronously; returns a completion.

        I/O commands run from the device clock, which then moves to their
        end; admin and vendor commands advance the clock themselves.
        """
        clock = self.ssd.clock
        completion, end = self._execute(command, clock.now_us, self._serial)
        clock.advance_to(end)
        return completion

    def execute_io(self, command, start_us):
        """Apply one I/O command with its own time cursor.

        The queued route: the async engine's slot workers call it, and
        the command applies as one atomic step starting at ``start_us``.
        Returns ``(completion, end_us)``; a failed command completes
        immediately, leaving ``end_us == start_us`` so the issuing slot
        does not lose its cursor.  Admin and vendor commands are refused
        ``INVALID_OPCODE`` (they are host-serial by nature).
        """
        return self._execute(command, start_us, self._queued)

    def _execute(self, command, start_us, table):
        """Decode ``command`` against the route's ``table``, then apply it
        from ``start_us``; returns ``(completion, end_us)``.  Both routes
        run this one decode:

        1. *opcode*: a member of its queue's enum, ``AdminOpcode`` when
           ``admin`` and ``Opcode`` otherwise.  A value equal to a member
           is not one: ``True`` and ``1.0`` equal WRITE, and READ and
           GET_LOG_PAGE are both 2.
        2. *table*: the route's row for ``(queue, member)`` names the
           handler and the integer fields it reads.
        3. *fields*: each of those is ``type(x) is int`` (a bool is
           not), and a range is at least one block long.

        A command the decode refuses completes ``INVALID_OPCODE`` or
        ``INVALID_FIELD`` before the FTL is touched.  Every page a
        handler applies is admitted by the FTL's ``serve_*_at``, and a
        device error maps to its NVMe status instead of raising.
        """
        name = "INVALID"
        end = start_us
        try:
            opcode = command.opcode
            queue = AdminOpcode if command.admin else Opcode
            if type(opcode) is not queue:
                raise _InvalidOpcode()
            row = table[queue].get(opcode)
            if row is None:
                raise _InvalidOpcode()
            handler, fields, queued, opname, ranged = row
            for field in fields:
                if type(getattr(command, field)) is not int:
                    raise _InvalidField()
            if ranged and command.nlb < 1:
                raise _InvalidField()
            name = opname
            if queued:
                result, end = handler(self, command, start_us)
            else:
                args = [getattr(command, field) for field in fields]
                if ranged:  # the one bounds rule, before TimeKits
                    self.ssd.check_lpa_range(args[0], args[1])
                result = handler(self, *args)
                end = self.ssd.clock.now_us
        except _COMMAND_ERRORS as exc:
            completion = NVMeCompletion(_status_for(exc))
            return self._complete(name, completion, end), end
        # A success, accounted in place: what ``_complete`` does, with the
        # latency (a non-negative int) appended to the histogram's buffer.
        latency = end - start_us
        completion = NVMeCompletion(_SUCCESS, result, latency)
        handles = self._success_metrics.get(name)
        if handles is None:
            handles = self._success_metrics[name] = self._resolve(name, _SUCCESS)
        op_count, status_count, histogram = handles
        op_count.value += 1
        status_count.value += 1
        samples = histogram.samples
        samples.append(latency)
        if len(samples) >= _FOLD_AT:
            histogram.fold()
        tr = self.obs.trace
        if tr.enabled:
            tr.emit("nvme", name, end, status="SUCCESS", latency_us=latency)
        return completion, end

    # --- I/O commands: ``(command, start_us) -> (result, end_us)`` ------------

    def _read(self, command, start_us):
        if command.nlb == 1:
            data, end = self.ssd.serve_read_at(command.slba, start_us)
            return [data], end
        return self.ssd.serve_reads_at(command.slba, command.nlb, start_us)

    def _write(self, command, start_us):
        """Every page is checked before the first is admitted: the range,
        then one page per LBA, each one the device can store."""
        ssd = self.ssd
        slba, nlb, data = command.slba, command.nlb, command.data
        ssd.check_lpa_range(slba, nlb)
        if data is not None:  # None: token pages; a REAL device refuses the first
            if not isinstance(data, (list, tuple)) or len(data) != nlb:
                raise _InvalidField()
            if ssd.host_page_bytes is not None:
                for i, page in enumerate(data):
                    ssd.check_host_page(slba + i, page)
        return nlb, ssd.serve_writes_at(range(slba, slba + nlb), data, start_us)

    def _trim(self, command, start_us):
        self.ssd.serve_trims_at(command.slba, command.nlb, start_us)
        return command.nlb, start_us

    def _flush(self, command, start_us):
        return 0, start_us  # writes are durable on completion in this model

    # --- Admin commands: ``() -> result`` ---------------------------------------

    def _identify(self):
        return IdentifyData(
            model="TimeSSD" if self._kits else "RegularSSD",
            logical_pages=self.ssd.logical_pages,
            page_size=self.ssd.device.geometry.page_size,
            retention_floor_us=getattr(self.ssd.config, "retention_floor_us", 0),
            time_travel=self._kits is not None,
        )

    def _get_log_page(self):
        return {
            "host_pages_written": self.ssd.host_pages_written,
            "host_pages_read": self.ssd.host_pages_read,
            "write_amplification": self.ssd.write_amplification,
            "gc_runs": self.ssd.gc_runs,
            "background_gc_runs": self.ssd.background_gc_runs,
        }

    def _retention_info(self):
        ssd = self.ssd
        return {
            "retention_window_us": ssd.retention_window_us(),
            "retention_floor_us": ssd.config.retention_floor_us,
            "retained_pages": ssd.retained_pages,
            "live_bloom_segments": len(ssd.blooms.live_segments()),
            "delta_records": ssd.deltas.records_created,
        }

    #: The one decode table: ``(queue, member) -> (handler, the integer
    #: fields it reads, whether the queued route takes it)``.  The queue
    #: is the member's enum, so READ and GET_LOG_PAGE (both 2) stay
    #: apart.  A queued handler is ``(command, start_us) -> (result,
    #: end_us)``; a host-serial one takes the fields' values and returns
    #: the result.
    _COMMANDS = {
        (Opcode, Opcode.READ): (_read, _RANGE, True),
        (Opcode, Opcode.WRITE): (_write, _RANGE, True),
        (Opcode, Opcode.DSM): (_trim, _RANGE, True),
        (Opcode, Opcode.FLUSH): (_flush, (), True),
        (AdminOpcode, AdminOpcode.IDENTIFY): (_identify, (), False),
        (AdminOpcode, AdminOpcode.GET_LOG_PAGE): (_get_log_page, (), False),
        (Opcode, Opcode.RETENTION_INFO): (_retention_info, (), False),
        (Opcode, Opcode.ADDR_QUERY): (
            _vendor("addr_query"), _RANGE + ("t", "threads"), False
        ),
        (Opcode, Opcode.ADDR_QUERY_RANGE): (
            _vendor("addr_query_range"), _RANGE + ("t", "t2", "threads"), False
        ),
        (Opcode, Opcode.ADDR_QUERY_ALL): (
            _vendor("addr_query_all"), _RANGE + ("threads",), False
        ),
        (Opcode, Opcode.TIME_QUERY): (
            _vendor("time_query"), ("t", "threads"), False
        ),
        (Opcode, Opcode.TIME_QUERY_RANGE): (
            _vendor("time_query_range"), ("t", "t2", "threads"), False
        ),
        (Opcode, Opcode.TIME_QUERY_ALL): (
            _vendor("time_query_all"), ("threads",), False
        ),
        (Opcode, Opcode.ROLLBACK): (
            _vendor("rollback"), _RANGE + ("t", "threads"), False
        ),
        (Opcode, Opcode.ROLLBACK_ALL): (
            _vendor("rollback_all"), ("t", "threads"), False
        ),
    }


class _InvalidOpcode(Exception):
    pass


class _InvalidField(Exception):
    pass


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
