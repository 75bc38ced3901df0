"""Host-side NVMe driver.

The convenience layer applications link against (the paper's TimeKits
"is developed atop the host NVMe driver which issues NVMe commands to
the firmware").  Each method builds the corresponding command, submits
it, and unwraps the completion — raising :class:`NVMeError` on non-
success status so callers don't silently drop errors.
"""

from repro.common.errors import ReproError
from repro.nvme.commands import AdminOpcode, NVMeCommand, Opcode, StatusCode
from repro.nvme.controller import NVMeController
from repro.nvme.engine import AsyncNVMeEngine


class NVMeError(ReproError):
    """A command completed with a non-success status."""

    def __init__(self, status, opcode):
        super().__init__("opcode 0x%02X failed with status %s" % (opcode, status.name))
        self.status = status
        self.opcode = opcode


class HostNVMeDriver:
    """Synchronous submission API over a controller."""

    def __init__(self, ssd):
        self.controller = NVMeController(ssd)

    def _submit(self, command):
        completion = self.controller.submit(command)
        if not completion.ok:
            raise NVMeError(completion.status, command.opcode)
        return completion

    # --- Standard I/O -----------------------------------------------------------

    def identify(self):
        return self._submit(
            NVMeCommand(opcode=AdminOpcode.IDENTIFY, admin=True)
        ).result

    def smart_log(self):
        return self._submit(
            NVMeCommand(opcode=AdminOpcode.GET_LOG_PAGE, admin=True)
        ).result

    def read(self, lba, count=1):
        return self._submit(NVMeCommand(Opcode.READ, slba=lba, nlb=count)).result

    def write(self, lba, pages):
        return self._submit(
            NVMeCommand(Opcode.WRITE, slba=lba, nlb=len(pages), data=pages)
        ).result

    def trim(self, lba, count=1):
        return self._submit(NVMeCommand(Opcode.DSM, slba=lba, nlb=count)).result

    def flush(self):
        return self._submit(NVMeCommand(Opcode.FLUSH)).result

    def submit_async(self, commands, queue_depth=8, queue_pairs=1,
                     tie_break=None, daemons=False, retention_target_us=None):
        """Event-driven submission: returns (completions, elapsed_us).

        Builds an :class:`AsyncNVMeEngine` over this driver's controller
        (so per-opcode metrics aggregate in one place) and drains the
        command list through it.  With ``daemons=True`` the device's
        background tasks run on the same loop and interleave with the
        I/O; ``tie_break`` selects the schedule (see
        ``repro.sched.core.SeededTieBreak``).
        """
        engine = AsyncNVMeEngine(
            self.controller.ssd,
            queue_depth=queue_depth,
            queue_pairs=queue_pairs,
            tie_break=tie_break,
            controller=self.controller,
        )
        if daemons:
            engine.install_daemons(retention_target_us=retention_target_us)
        return engine.process(commands)

    # --- TimeKits vendor commands --------------------------------------------------

    def addr_query(self, lba, count=1, t=0, threads=1):
        return self._submit(
            NVMeCommand(Opcode.ADDR_QUERY, slba=lba, nlb=count, t=t, threads=threads)
        ).result

    def addr_query_range(self, lba, count, t1, t2, threads=1):
        return self._submit(
            NVMeCommand(
                Opcode.ADDR_QUERY_RANGE, slba=lba, nlb=count, t=t1, t2=t2, threads=threads
            )
        ).result

    def addr_query_all(self, lba, count=1, threads=1):
        return self._submit(
            NVMeCommand(Opcode.ADDR_QUERY_ALL, slba=lba, nlb=count, threads=threads)
        ).result

    def time_query(self, t, threads=1):
        return self._submit(
            NVMeCommand(Opcode.TIME_QUERY, t=t, threads=threads)
        ).result

    def time_query_range(self, t1, t2, threads=1):
        return self._submit(
            NVMeCommand(Opcode.TIME_QUERY_RANGE, t=t1, t2=t2, threads=threads)
        ).result

    def time_query_all(self, threads=1):
        return self._submit(
            NVMeCommand(Opcode.TIME_QUERY_ALL, threads=threads)
        ).result

    def rollback(self, lba, count=1, t=0, threads=1):
        return self._submit(
            NVMeCommand(Opcode.ROLLBACK, slba=lba, nlb=count, t=t, threads=threads)
        ).result

    def rollback_all(self, t, threads=1):
        return self._submit(
            NVMeCommand(Opcode.ROLLBACK_ALL, t=t, threads=threads)
        ).result

    def retention_info(self):
        return self._submit(NVMeCommand(Opcode.RETENTION_INFO)).result
