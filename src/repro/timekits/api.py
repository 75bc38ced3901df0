"""The TimeKits query/rollback API (paper Table 1).

Semantics notes:

* ``t`` arguments are absolute simulated times (microseconds).  The
  paper phrases them as "some time ago"; callers can compute
  ``ssd.clock.now_us - ago``.
* ``addr_query(addr, cnt, t)`` returns, per LPA, the version that was
  current at time ``t``: the newest version written at or before ``t``,
  or ``None`` when there is none — the LPA held nothing at ``t``.  A
  TRIM is a version too: an LPA deleted as of ``t`` answers with a
  ``Version`` whose ``source`` is ``"deleted"`` (``data`` None).  A
  rollback restores that answer, so an LPA absent at ``t`` is TRIMmed.
* "No version at or before ``t``" means absent only where the device
  still holds everything invalidated since ``t``: from the guaranteed
  start (:meth:`RetentionManager.window_start_us`) on.  An earlier ``t``
  is refused with :class:`QueryError` before any page is read.
* Multi-LPA queries accept ``threads``: the paper's Figure 11 shows
  recovery speeding up with threads because independent chains ride
  different flash channels.  Each simulated thread walks its share of
  LPAs serially; channel contention is resolved by the device model.

Every method returns a :class:`QueryResult` carrying both the answer and
the simulated elapsed time, which is what the evaluation (Table 3,
Figures 10-11) reports.
"""

from dataclasses import dataclass, field

from repro.common.errors import QueryError
from repro.timessd.ssd import TimeSSD


@dataclass
class QueryResult:
    """Answer plus simulated execution time of one TimeKits call."""

    value: object
    elapsed_us: int
    pages_touched: int = 0


def pick_as_of(versions, t):
    """Newest version written at or before ``t`` (versions newest-first)."""
    for version in versions:
        if version.timestamp_us <= t:
            return version
    return None


def check_threads(threads):
    """``threads`` arrives from the host (the NVMe command's hint): an
    ``int`` >= 1, or :class:`QueryError`."""
    if type(threads) is not int or threads < 1:
        raise QueryError("threads must be an int >= 1, got %r" % (threads,))


class TimeKits:
    """Host-side toolkit wrapping the TimeSSD state-query engine."""

    def __init__(self, ssd):
        if not isinstance(ssd, TimeSSD):
            raise QueryError("TimeKits requires a TimeSSD device")
        self.ssd = ssd
        self._last_pages_touched = 0
        #: The ``timekits.walk.*`` metrics, resolved by the first
        #: :meth:`walk_many` (so they appear in a device's snapshot with
        #: its first walk, not with its first toolkit).
        self._walk_metrics = None

    # --- Multi-LPA fan-out primitives (public: case studies build on them) ----

    def walk_many(self, lpas, threads=1, until_ts=None, payloads=True):
        """Walk version chains of many LPAs with simulated threads.

        Returns ``(chains, elapsed_us)`` where ``chains`` maps LPA to its
        newest-first version list.  Thread ``k`` processes every
        ``threads``-th LPA; within a thread reads are dependent (serial),
        across threads they overlap subject to channel availability —
        exactly the parallelism the paper exploits.  ``until_ts`` enables
        the AddrQuery early stop (walk ends at the first version written
        at or before it).

        The address queries and the rollbacks carry page bytes and keep
        ``payloads=True``.  The time queries answer with LPAs and
        timestamps only and pass ``False``: the same page reads, no
        decompression, every ``Version.data`` ``None`` (see
        :meth:`TimeSSD.version_chain`).

        One call is one vendor command, and the controller buffers the
        delta pages a command fetches: neighbouring LPAs' deltas are
        packed into the same pages, so every walk of the call is handed
        the same ``delta_pages`` set and each page is read at most once.
        The set dies with the call.

        A thread beyond the ``len(lpas)``-th gets no LPA and its cursor
        never leaves the start, so only that many cursors exist.

        The page reader every walk reads through is taken once for the
        command, by :meth:`TimeSSD.history_reader`: a locked device
        refuses the command there, before any read.
        """
        check_threads(threads)
        ssd = self.ssd
        page_reads = ssd.device.page_reads
        start = ssd.clock.now_us
        reads_before = page_reads.value
        decompressed_before = ssd.deltas_decompressed
        passed_before = ssd.deltas_passed
        delta_pages = set()
        cursors = [start] * min(threads, len(lpas))
        chains = {}
        read = ssd.history_reader() if lpas else None
        for i, lpa in enumerate(lpas):
            k = i % len(cursors)
            versions, complete = ssd.version_chain(
                lpa,
                cursors[k],
                until_ts=until_ts,
                payloads=payloads,
                delta_pages=delta_pages,
                read=read,
            )
            cursors[k] = complete
            chains[lpa] = versions
        end = max(cursors) if cursors else start
        ssd.clock.advance_to(end)
        self._last_pages_touched = page_reads.value - reads_before
        if self._walk_metrics is None:
            metrics = ssd.obs.metrics
            self._walk_metrics = (
                metrics.counter("timekits.walk.deltas_passed"),
                metrics.counter("timekits.walk.deltas_decompressed"),
                metrics.counter("timekits.walk.delta_pages_read"),
                metrics.gauge("timekits.walk.delta_pages_buffered"),
            )
        passed, decompressed, pages_read, buffered = self._walk_metrics
        passed.inc(ssd.deltas_passed - passed_before)
        decompressed.inc(ssd.deltas_decompressed - decompressed_before)
        pages_read.inc(len(delta_pages))
        buffered.set(max(buffered.value, len(delta_pages)))
        return chains, end - start

    def restore_many(self, pairs, threads=1):
        """Write ``(lpa, data)`` pairs back with simulated threads.

        Rollback writes are regular admitted host writes (refused on a
        read-only device, counted by Equation 1; the pre-rollback state
        stays retained), issued concurrently by the recovery threads so
        the write-back phase overlaps across channels like the walk phase.
        """
        check_threads(threads)
        ssd = self.ssd
        start = ssd.clock.now_us
        lpas = [lpa for lpa, _data in pairs]
        pages = [data for _lpa, data in pairs]
        ssd.clock.advance_to(ssd.serve_writes_at(lpas, pages, start, threads))
        return ssd.clock.now_us - start

    def _range(self, addr, cnt):
        if cnt < 1:
            raise QueryError("cnt must be >= 1")
        if addr < 0 or addr + cnt > self.ssd.logical_pages:
            raise QueryError(
                "LPA range [%d, %d) outside device" % (addr, addr + cnt)
            )
        return range(addr, addr + cnt)

    # --- Address-based state queries (Table 1, rows 1-3) ----------------------

    def as_of(self, lpas, t, threads=1):
        """:meth:`addr_query` over any list of LPAs, e.g. a file's extents.

        The one as-of rule: the walk stops at the first version written
        at or before ``t`` and :func:`pick_as_of` answers from it; every
        requested LPA is answered, ``None`` when it was absent at ``t``.
        A ``t`` before the guaranteed start is refused before the walk.
        """
        start = self.ssd.retention.window_start_us()
        if t < start:
            raise QueryError("t=%d before guaranteed start %d" % (t, start))
        chains, elapsed = self.walk_many(lpas, threads, until_ts=t)
        picked = {lpa: pick_as_of(versions, t) for lpa, versions in chains.items()}
        return QueryResult(picked, elapsed, self._last_pages_touched)

    def addr_query(self, addr, cnt=1, t=0, threads=1):
        """State of each LPA as of time ``t`` (one version per LPA)."""
        return self.as_of(self._range(addr, cnt), t, threads)

    def addr_query_range(self, addr, cnt, t1, t2, threads=1):
        """All versions written within ``[t1, t2]`` for each LPA."""
        if t1 > t2:
            raise QueryError("t1 must not exceed t2")
        chains, elapsed = self.walk_many(
            self._range(addr, cnt), threads, until_ts=t1
        )
        out = {
            lpa: [v for v in versions if t1 <= v.timestamp_us <= t2]
            for lpa, versions in chains.items()
        }
        return QueryResult(out, elapsed, self._last_pages_touched)

    def addr_query_all(self, addr, cnt=1, threads=1):
        """Every retained version of each LPA in the retention window."""
        chains, elapsed = self.walk_many(self._range(addr, cnt), threads)
        return QueryResult(chains, elapsed, self._last_pages_touched)

    # --- Time-based state queries (Table 1, rows 4-6) ---------------------------

    def _time_filtered(self, predicate, threads):
        """Scan every LPA with history, keeping write timestamps that match.

        The body of all three time queries.  Their answer is LPAs and
        timestamps, never bytes, so this is the one walk that asks for no
        payloads.  LPAs with history but no current version (trimmed and
        not rewritten) belong in the chronology too; they are walked
        after the mapped ones, so the mapped walk's thread assignment and
        booked times do not depend on them, and answered in LPA order.
        A deletion is an update: its TRIM's time is listed like a write's.
        """
        chains, elapsed = self.walk_many(
            self.ssd.lpas_with_history(), threads, payloads=False
        )
        out = {}
        for lpa in sorted(chains):
            stamps = [v.timestamp_us for v in chains[lpa] if predicate(v.timestamp_us)]
            if stamps:
                out[lpa] = sorted(stamps)
        return QueryResult(out, elapsed, self._last_pages_touched)

    def time_query(self, t, threads=1):
        """All LPAs updated since ``t``, with their write timestamps."""
        return self._time_filtered(lambda ts: ts >= t, threads)

    def time_query_range(self, t1, t2, threads=1):
        """All LPAs updated within ``[t1, t2]``, with timestamps."""
        if t1 > t2:
            raise QueryError("t1 must not exceed t2")
        return self._time_filtered(lambda ts: t1 <= ts <= t2, threads)

    def time_query_all(self, threads=1):
        """All LPAs updated within the entire retention window."""
        return self._time_filtered(lambda ts: True, threads)

    # --- State rollbacks (Table 1, rows 7-8) ------------------------------------

    def rollback(self, addr, cnt=1, t=0, threads=1):
        """Revert LPAs to their state as of ``t``.

        A rollback is a regular write of the old version's content
        (paper §3.9): the pre-rollback state is itself retained, so a
        rollback can be rolled back.  Returns the per-LPA as-of answer.
        """
        return self.rollback_lpas(self._range(addr, cnt), t, threads)

    def rollback_all(self, t, threads=1):
        """Revert every LPA with history to its state as of ``t``: a
        trimmed one is rewritten with its as-of version, and one first
        written after ``t`` is TRIMmed.

        The paper warns this is aggressive: it writes back a large volume
        of data, shortening retention, and can trip the retention-floor
        alarm.  The caller sees that as :class:`RetentionViolationError`.
        """
        return self.rollback_lpas(self.ssd.lpas_with_history(), t, threads)

    def rollback_lpas(self, lpas, t, threads=1):
        """:meth:`rollback` over any list of LPAs, e.g. a file's extents.

        :meth:`as_of` plus a write-back, answered with its answer: an LPA
        absent or deleted as of ``t`` is TRIMmed if it is mapped, one
        whose as-of version is the one the device reads now is left
        alone, and any other is rewritten with its as-of version.

        A read-only device refuses it before the walk, so a refused
        rollback reads nothing and moves no clock.
        """
        ssd = self.ssd
        ssd.ensure_writable()
        start = ssd.clock.now_us
        answer = self.as_of(lpas, t, threads).value
        writes = []
        for lpa, target in answer.items():
            if target is None or target.source == "deleted":
                if ssd.mapping.is_mapped(lpa):
                    ssd.serve_trim_at(lpa, ssd.clock.now_us)
            elif target.source != "current":
                writes.append((lpa, target.data))
        self.restore_many(writes, threads)
        return QueryResult(answer, ssd.clock.now_us - start)
