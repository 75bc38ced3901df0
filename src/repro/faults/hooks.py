"""Device-side fault mechanics: what a fired fault does to the media.

:class:`FaultHooks` adapts a :class:`~repro.faults.plan.FaultPlan` to the
three hook points :class:`repro.flash.device.FlashDevice` exposes
(``on_read`` / ``on_program`` / ``on_erase``).  Hooks run *before* the
operation commits, so a fault means the op never happened as far as
counters and timing are concerned — except for the physical residue the
fault itself leaves:

* TORN_PROGRAM persists a half-written page with a mismatched OOB
  sequence tag, then raises :class:`PowerCutError` — the state recovery
  must detect and discard;
* PROGRAM_FAIL burns the page (garbage data, torn tag): real NAND
  consumes the page on a failed program, so firmware must skip it;
* PROGRAM_FAIL_PERMANENT / ERASE_FAIL additionally mark the block as a
  grown bad block (the ``failed`` column), which survives power cuts;
* POWER_CUT and READ_UNCORRECTABLE leave no residue.

The flash layer never imports this module (layering: faults sits above
the firmware); it only calls the duck-typed hook methods when a plan is
installed via ``SSDConfig.faults``.
"""

from repro.common.errors import (
    EraseFailureError,
    PowerCutError,
    ProgramFailureError,
    UncorrectableReadError,
)
from repro.faults.plan import FaultKind, OpType

OP_READ = OpType.READ
OP_PROGRAM = OpType.PROGRAM
OP_ERASE = OpType.ERASE

#: Marker stored as page data when a program fails mid-flight and the
#: model has no byte-level content to truncate (modeled-content mode).
BURNED_PAGE = "<burned>"


class FaultHooks:
    """Installable fault hooks: ``SSDConfig(faults=FaultHooks(plan))``."""

    def __init__(self, plan):
        self.plan = plan

    @staticmethod
    def _note_fired(device, kind, op, address):
        """Account the fired fault in the device's observability scope."""
        metrics = device.obs.metrics
        metrics.counter("fault.fired").inc()
        metrics.counter("fault.%s" % kind.name).inc()
        tr = device.obs.trace
        if tr.enabled:
            tr.emit(
                "fault",
                kind.name,
                device.last_op_start_us,
                op=op.name,
                address=address,
            )

    # --- Hook points (called by FlashDevice before each op commits) ---------

    def on_read(self, device, ppa):
        kind = self.plan.fire(OP_READ, ppa)
        if kind is None:
            return
        self._note_fired(device, kind, OP_READ, ppa)
        if kind is FaultKind.POWER_CUT:
            raise PowerCutError(
                "power cut before read of PPA %d (flash op %d)"
                % (ppa, self.plan.ops_seen),
                op_index=self.plan.ops_seen,
            )
        if kind is FaultKind.READ_UNCORRECTABLE:
            raise UncorrectableReadError(ppa)

    def on_program(self, device, ppa, data, oob):
        kind = self.plan.fire(OP_PROGRAM, ppa)
        if kind is None:
            return
        self._note_fired(device, kind, OP_PROGRAM, ppa)
        if kind is FaultKind.POWER_CUT:
            raise PowerCutError(
                "power cut before program of PPA %d (flash op %d)"
                % (ppa, self.plan.ops_seen),
                op_index=self.plan.ops_seen,
            )
        if kind is FaultKind.TORN_PROGRAM:
            self._burn_page(device, ppa, data, oob, torn=True)
            raise PowerCutError(
                "power cut tore program of PPA %d (flash op %d)"
                % (ppa, self.plan.ops_seen),
                op_index=self.plan.ops_seen,
            )
        # Transient or permanent program failure: the page is consumed.
        self._burn_page(device, ppa, data, oob, torn=False)
        permanent = kind is FaultKind.PROGRAM_FAIL_PERMANENT
        if permanent:
            device.core.failed[device.geometry.block_of_page(ppa)] = 1
        raise ProgramFailureError(ppa, permanent=permanent)

    def on_erase(self, device, pba):
        kind = self.plan.fire(OP_ERASE, pba)
        if kind is None:
            return
        self._note_fired(device, kind, OP_ERASE, pba)
        if kind is FaultKind.POWER_CUT:
            raise PowerCutError(
                "power cut before erase of PBA %d (flash op %d)"
                % (pba, self.plan.ops_seen),
                op_index=self.plan.ops_seen,
            )
        device.core.failed[pba] = 1
        raise EraseFailureError(pba)

    # --- Media residue ------------------------------------------------------

    @staticmethod
    def _burn_page(device, ppa, data, oob, torn):
        """Consume the page: partial/garbage data under a torn OOB tag.

        Goes through ``core.program`` so NAND sequencing invariants hold
        and the block's write pointer advances — exactly what a real
        failed/torn program does to the media.
        """
        geo = device.geometry
        if isinstance(data, (bytes, bytearray)):
            half = len(data) // 2
            residue = bytes(data[:half]).ljust(len(data), b"\x00")
        elif torn:
            residue = data
        else:
            residue = BURNED_PAGE
        device.core.program(
            geo.block_of_page(ppa), geo.page_offset(ppa), residue, oob.as_torn()
        )
