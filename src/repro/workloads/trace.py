"""Block-level trace records and the replayer."""

from dataclasses import dataclass

from repro.obs import LatencyHistogram


@dataclass(frozen=True)
class TraceRecord:
    """One host request: ``op`` is 'R', 'W' or 'T' (trim)."""

    timestamp_us: int
    op: str
    lpa: int
    npages: int = 1

    def __post_init__(self):
        if self.op not in ("R", "W", "T"):
            raise ValueError("op must be R, W or T")
        if self.npages < 1:
            raise ValueError("npages must be >= 1")


@dataclass
class ReplayStats:
    """Outcome of a trace replay."""

    requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    pages_written: int = 0
    pages_read: int = 0
    response: LatencyHistogram = None
    aborted_at: int = None  # request index where the device stopped, if any

    def __post_init__(self):
        if self.response is None:
            self.response = LatencyHistogram("replay.response_us")


class TraceReplayer:
    """Replays a trace against an SSD, honouring timestamps.

    The clock advances to each request's timestamp before issue, so idle
    gaps are visible to the device (background compression depends on
    them).  Per-request response time is the span from arrival to the
    completion of the request's last page.
    """

    def __init__(self, ssd):
        self.ssd = ssd

    def replay(self, trace, stop_on_device_full=True):
        """Run all records; returns :class:`ReplayStats`.

        ``stop_on_device_full=True`` converts the TimeSSD alarm condition
        (retention floor would be violated) into a clean stop with
        ``aborted_at`` set, which is how the experiments observe it.
        """
        from repro.common.errors import DeviceFullError

        ssd = self.ssd
        stats = ReplayStats()
        for index, record in enumerate(trace):
            ssd.clock.advance_to(record.timestamp_us)
            arrival = ssd.clock.now_us
            try:
                if record.op == "W":
                    ssd.write_range(record.lpa, record.npages)
                    stats.write_requests += 1
                    stats.pages_written += record.npages
                elif record.op == "R":
                    ssd.read_range(record.lpa, record.npages)
                    stats.read_requests += 1
                    stats.pages_read += record.npages
                else:
                    for i in range(record.npages):
                        ssd.trim(record.lpa + i)
            except DeviceFullError:
                if not stop_on_device_full:
                    raise
                stats.aborted_at = index
                break
            stats.requests += 1
            stats.response.record(ssd.clock.now_us - arrival)
        return stats
