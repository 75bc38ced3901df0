"""The flash device: functional array of blocks plus the timing model.

The device exposes page-granularity read/program and block-granularity
erase, each returning the operation's completion time on its channel so
the FTL above can account I/O response times.  Functional state and timing
are kept in one place so a single call site cannot forget either.
"""

from array import array

from repro.common.errors import EraseFailureError, FlashStateError, ProgramFailureError
from repro.flash.core import ColumnarFlashArray, verify_seq_tags
from repro.flash.geometry import FlashGeometry
from repro.flash.page import Page
from repro.flash.reliability import ReliabilityEngine
from repro.flash.timing import ChannelTimelines, FlashTiming, book, book_then
from repro.obs import LatencyHistogram, Scope

#: The per-op latency samples are recorded in place (see
#: :class:`LatencyHistogram`): a buffer folds at this length.
_FOLD_AT = LatencyHistogram.FOLD_AT


class BlockOOBScan:
    """One block's OOB columns, as :meth:`FlashDevice.scan_oob` yields them.

    The int64 members (``lpa``, ``back_pointer``, ``timestamp_us``,
    ``seq_tag``, ``programmed_us``) are ``array('q')`` copies covering
    offsets ``[0, write_pointer)``; ``intact[i]`` is 1 iff offset ``i``
    is programmed and its sequence tag matches its fields (i.e. the page
    committed — torn and burned pages read 0).  Everything at or past
    ``write_pointer`` is erased by the NAND invariants and not included.
    """

    __slots__ = (
        "pba",
        "erase_count",
        "write_pointer",
        "failed",
        "state",
        "lpa",
        "back_pointer",
        "timestamp_us",
        "seq_tag",
        "programmed_us",
        "intact",
    )

    def __init__(self, core, pba, columns=None, intact=None):
        """``columns`` / ``intact`` are the block's ``core.page_slice`` and
        its seal-check result when the caller already holds them (the
        batched :meth:`FlashDevice.scan_oob`); both default to being
        taken here."""
        self.pba = pba
        self.erase_count = core.erase_count[pba]
        self.write_pointer = core.write_pointer[pba]
        self.failed = bool(core.failed[pba])
        if columns is None:
            columns = core.page_slice(pba)
        state, lpa, back, ts, seq, programmed = columns
        self.state = state
        self.lpa = lpa
        self.back_pointer = back
        self.timestamp_us = ts
        self.seq_tag = seq
        self.programmed_us = programmed
        if intact is None:
            intact = verify_seq_tags(lpa, back, ts, seq)
        if 0 in state:
            # Defensive: sequential-program NAND never leaves erased
            # holes below the write pointer, but a direct state poke
            # (tests, tooling) could — mask those out of ``intact``.
            for i, programmed_flag in enumerate(state):
                if not programmed_flag:
                    intact[i] = 0
        self.intact = intact


class FlashDevice:
    """A multi-channel NAND flash array with latency accounting."""

    def __init__(
        self,
        geometry=None,
        timing=None,
        reliability=None,
        fault_hooks=None,
        obs=None,
    ):
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or FlashTiming()
        #: Observability scope shared with the owning FTL (a standalone
        #: device gets a private one so metrics are always recorded).
        self.obs = obs if obs is not None else Scope()
        if reliability is not None:
            self.reliability = ReliabilityEngine(
                reliability, self.geometry.page_size, metrics=self.obs.metrics
            )
        else:
            self.reliability = None
        #: Optional fault-injection hooks (duck-typed; see repro.faults.hooks).
        #: None on the happy path — every call site guards on it.
        self.faults = fault_hooks
        #: Start time of the op currently consulting the fault hooks —
        #: hooks have no clock of their own, so trace events read this.
        self.last_op_start_us = 0
        #: The columnar (structure-of-arrays) page/block store.  All
        #: functional state lives here.
        self.core = ColumnarFlashArray(
            self.geometry.total_blocks, self.geometry.pages_per_block
        )
        geo = self.geometry
        self.timelines = ChannelTimelines(geo.channels)
        # One timeline per die: cell operations (sense/program/erase)
        # occupy the chip while bus transfers occupy the channel.
        self.chip_timelines = ChannelTimelines(geo.channels * geo.chips_per_channel)
        # Each block's ``(chip lane, channel lane)``.  The geometry is
        # immutable, so the lanes are tabulated here, once, and every
        # flash op indexes them instead of re-deriving them.
        self._lanes_of = [
            (
                self.chip_timelines.lane(channel * geo.chips_per_channel + chip),
                self.timelines.lane(channel),
            )
            for channel, chip in map(geo.chip_of_block, range(geo.total_blocks))
        ]
        metrics = self.obs.metrics
        #: Lifetime op counts: the registry's ``flash.*`` counters, the
        #: inputs to write amplification and Equation 1 (read ``.value``).
        self.page_reads = metrics.counter("flash.reads")
        self.page_programs = metrics.counter("flash.programs")
        self.block_erases = metrics.counter("flash.erases")
        self._m_scan_blocks = metrics.counter("flash.scan.blocks")
        self._m_scan_pages = metrics.counter("flash.scan.pages")
        self._h_read_us = metrics.histogram("flash.read_us")
        self._h_program_us = metrics.histogram("flash.program_us")
        self._h_erase_us = metrics.histogram("flash.erase_us")
        # Every page read and program books a latency sample: a
        # non-negative int (integer timing, a completion at or after its
        # start), so it goes into the buffer without record()'s frame.
        self._read_samples = self._h_read_us.samples
        self._program_samples = self._h_program_us.samples

    # --- Functional + timed operations --------------------------------------

    def read_page(self, ppa, now_us=0, retry_step: int = 0):
        """Read a page; returns ``(complete_us, corrected_bits)``.

        Timing: the cell sense occupies the chip, then the data transfer
        occupies the channel bus — so with multiple chips per channel,
        one die can sense while another's data streams out.

        ``retry_step`` > 0 is a read-retry ladder attempt: the sense
        re-runs with shifted reference voltages, lowering the effective
        BER at the cost of ``retry_step`` extra sense times.  Every
        attempt (retries included) stresses the block's neighbours, so
        each one advances the read-disturb accumulator.

        ``corrected_bits`` (0 with reliability off) is what firmware
        watches drift toward the ECC budget.  No copy of the page comes
        back: a reader takes what it needs from the ``core`` columns.
        """
        core = self.core
        if not 0 <= ppa < core.total_pages:
            self.geometry.check_ppa(ppa)
        pba = ppa // core.pages_per_block
        if self.faults is not None:
            self.last_op_start_us = now_us
            self.faults.on_read(self, ppa)
        if not core.state[ppa]:
            raise FlashStateError("read of erased page %d" % ppa)
        # Disturb from *prior* senses degrades this read; this read's own
        # stress lands on the next one.  Count before the ECC check so
        # retry attempts see the same disturb term as the failed read.
        disturb_reads = core.reads_since_erase[pba]
        core.reads_since_erase[pba] = disturb_reads + 1
        corrected = 0
        if self.reliability is not None:
            # ECC check: may raise UncorrectableReadError.  Corrected
            # errors cost nothing functionally (as on real drives) but
            # the count is surfaced so firmware can refresh early.
            page_age = max(0, now_us - core.programmed_us[ppa])
            corrected = self.reliability.check_read(
                ppa,
                core.erase_count[pba],
                age_us=page_age,
                block_reads=disturb_reads,
                retry_step=retry_step,
            )
        chip, channel = self._lanes_of[pba]
        timing = self.timing
        complete = book_then(
            chip,
            timing.read_us * (1 + retry_step),
            channel,
            timing.bus_transfer_us,
            now_us,
        )
        self.page_reads.value += 1
        samples = self._read_samples
        samples.append(complete - now_us)
        if len(samples) >= _FOLD_AT:
            self._h_read_us.fold()
        tr = self.obs.trace
        if tr.enabled:
            tr.emit("flash-op", "read", complete, ppa=ppa, start_us=int(now_us))
        return complete, corrected

    _sense = read_page  # the read half of copy_page, under its own name

    def program_page(self, ppa, data, oob, now_us=0):
        """Program an erased page; returns the completion time.

        Timing: the bus transfer occupies the channel, then the cell
        program occupies the chip.
        """
        core = self.core
        pages_per_block = core.pages_per_block
        if not 0 <= ppa < core.total_pages:
            self.geometry.check_ppa(ppa)
        pba = ppa // pages_per_block
        if core.failed[pba]:
            raise ProgramFailureError(ppa, permanent=True)
        if self.faults is not None:
            # May raise (power cut, program failure); a torn program
            # persists its partial page before raising, so nothing past
            # this line runs for a failed op — no counters, no timing.
            self.last_op_start_us = now_us
            self.faults.on_program(self, ppa, data, oob)
        core.program(pba, ppa % pages_per_block, data, oob)
        return self._book_program(pba, ppa, now_us)

    def _book_program(self, pba, ppa, now_us):
        """The tail of a program of ``ppa`` at ``now_us`` whose columns are
        written: the retention clock, the bus-then-cell booking, the count,
        the latency and the trace event; returns the completion."""
        core = self.core
        core.last_program_us[pba] = now_us
        # Retention clock: charge leakage is measured from this moment.
        core.programmed_us[ppa] = now_us
        chip, channel = self._lanes_of[pba]
        timing = self.timing
        complete = book_then(
            channel, timing.bus_transfer_us, chip, timing.program_us, now_us
        )
        self.page_programs.value += 1
        samples = self._program_samples
        samples.append(complete - now_us)
        if len(samples) >= _FOLD_AT:
            self._h_program_us.fold()
        tr = self.obs.trace
        if tr.enabled:
            tr.emit("flash-op", "program", complete, ppa=ppa, start_us=int(now_us))
        return complete

    def copy_page(self, src, now_us, allocate, retry_step=0):
        """Copy the programmed page ``src`` to the erased page that
        ``allocate()`` names; returns ``(dst, complete_us, corrected_bits)``.

        The GC copy as one device op: a read of ``src`` at ``now_us``,
        checked, counted and booked exactly as :meth:`read_page` does it
        (``retry_step`` included), then — only once the read has passed
        ECC, so a failed read leaves the allocator untouched — ``dst =
        allocate()`` programmed at the read's completion as
        :meth:`program_page` does it, with the data and the OOB columns
        (LPA, back-pointer, timestamp, seal) carried column to column.
        No :class:`OOBMetadata` is built; the fault hooks, which take
        one, get it behind their guard.

        ``retry_step=None`` skips the read: the caller has just read
        ``src`` and ``now_us`` is that read's completion.  A
        :class:`ProgramFailureError` leaves the read booked and carries
        ``sensed_us`` (the read's completion) and ``corrected_bits``, so
        the caller can retry the program alone.
        """
        corrected = 0
        if retry_step is None:
            sensed = now_us
        else:
            sensed, corrected = self._sense(src, now_us, retry_step)
        core = self.core
        dst = allocate()
        if not 0 <= dst < core.total_pages:
            self.geometry.check_ppa(dst)
        pba = dst // core.pages_per_block
        failure = None
        if core.failed[pba]:
            failure = ProgramFailureError(dst, permanent=True)
        elif self.faults is not None:
            self.last_op_start_us = sensed
            try:
                self.faults.on_program(self, dst, core.data[src], core.oob_at(src))
            except ProgramFailureError as exc:
                failure = exc
        if failure is not None:
            failure.sensed_us = sensed
            failure.corrected_bits = corrected
            raise failure
        core.copy(src, pba, dst % core.pages_per_block)
        return dst, self._book_program(pba, dst, sensed), corrected

    def erase_block(self, pba, now_us=0):
        """Erase a block; returns the completion time.

        Erase occupies only the die — the channel stays free for other
        chips, which is why multi-chip devices hide GC stalls better.
        """
        geo = self.geometry
        geo.check_pba(pba)
        if self.core.failed[pba]:
            raise EraseFailureError(pba)
        if self.faults is not None:
            self.last_op_start_us = now_us
            self.faults.on_erase(self, pba)
        self.core.erase(pba)
        complete = book(self._lanes_of[pba][0], now_us, self.timing.erase_us)
        self.block_erases.inc()
        self._h_erase_us.record(complete - now_us)
        tr = self.obs.trace
        if tr.enabled:
            tr.emit("flash-op", "erase", complete, pba=pba, start_us=int(now_us))
        return complete

    # --- Untimed peeks (host-side tooling / assertions only) ----------------

    def peek_page(self, ppa):
        """Inspect a page without timing or counters: a read-only
        :class:`Page` view for tests and host-side tooling.  Nothing under
        ``src/repro`` calls this — firmware reads the ``core`` columns.
        """
        self.geometry.check_ppa(ppa)
        return Page(self.core, ppa)

    def block_erase_counts(self):
        return list(self.core.erase_count)

    # --- Bulk OOB sweeps ------------------------------------------------------

    def scan_block_oob(self, pba):
        """One block's OOB columns as a :class:`BlockOOBScan`.

        An OOB sweep models firmware reading only the out-of-band area
        of sequential pages (mount-time recovery, patrol candidacy): it
        is untimed like :meth:`peek_page`, but counted — the
        ``flash.scan.*`` counters expose how much of the device each
        sweep actually touched.
        """
        self.geometry.check_pba(pba)
        scan = BlockOOBScan(self.core, pba)
        self._m_scan_blocks.inc()
        self._m_scan_pages.inc(scan.write_pointer)
        return scan

    def scan_oob(self, pbas=None):
        """Sweep the OOB metadata of many blocks; yields :class:`BlockOOBScan`.

        ``pbas`` defaults to every block.  Erased, non-failed blocks are
        skipped (nothing to report); failed blocks are yielded (with
        ``failed=True``) whatever their fill: media truth.

        Every scan equals :meth:`scan_block_oob`'s and is counted the
        same way; what differs is that the seals of all requested blocks
        are verified in one :func:`verify_seq_tags` call over their
        columns laid end to end (the batch verifier costs far more per
        call than per page), so the columns are read when the first scan
        is asked for.
        """
        core = self.core
        if pbas is None:
            pbas = range(self.geometry.total_blocks)
        wanted = []
        for pba in pbas:
            self.geometry.check_pba(pba)
            if core.write_pointer[pba] or core.failed[pba]:
                wanted.append(pba)
        slices = [core.page_slice(pba) for pba in wanted]
        lpas, backs, timestamps, seqs = (array("q") for _ in range(4))
        for _state, lpa, back, ts, seq, _programmed in slices:
            lpas.extend(lpa)
            backs.extend(back)
            timestamps.extend(ts)
            seqs.extend(seq)
        intact = verify_seq_tags(lpas, backs, timestamps, seqs)
        start = 0
        for pba, columns in zip(wanted, slices):
            stop = start + len(columns[0])
            scan = BlockOOBScan(core, pba, columns, intact[start:stop])
            start = stop
            self._m_scan_blocks.inc()
            self._m_scan_pages.inc(scan.write_pointer)
            yield scan

    def __repr__(self):
        return "FlashDevice(%d blocks x %d pages, %d channels)" % (
            self.geometry.total_blocks,
            self.geometry.pages_per_block,
            self.geometry.channels,
        )
