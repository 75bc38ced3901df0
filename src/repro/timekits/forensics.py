"""Storage forensics on top of time-based state queries (paper §2.2, §3.9).

Reconstructs a tamper-evident chronology of storage updates from the
device's retained history.  Because the history lives under the block
interface, a host-level attacker cannot rewrite it — the evidence chain
survives even a compromised OS (the paper's forensics motivation).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class UpdateEvent:
    """One write, or one TRIM, observed in the retained history."""

    timestamp_us: int
    lpa: int

    def __lt__(self, other):
        return (self.timestamp_us, self.lpa) < (other.timestamp_us, other.lpa)


class ForensicTimeline:
    """Chronological reconstruction of device updates."""

    def __init__(self, timekits):
        self.kits = timekits

    def events_since(self, t, threads=1):
        """All update events at or after ``t``, in time order.

        Returns ``(events, elapsed_us)``.
        """
        result = self.kits.time_query(t, threads=threads)
        events = sorted(
            UpdateEvent(ts, lpa)
            for lpa, stamps in result.value.items()
            for ts in stamps
        )
        return events, result.elapsed_us

    def activity_histogram(self, t1, t2, buckets=24):
        """Bucketed write counts over ``[t1, t2]`` — burst detection.

        A ransomware-style mass rewrite shows up as an anomalous spike.
        Returns ``(counts, bucket_us, elapsed_us)``.
        """
        if t2 <= t1 or buckets <= 0:
            raise ValueError("need t2 > t1 and positive bucket count")
        result = self.kits.time_query_range(t1, t2)
        bucket_us = (t2 - t1) / buckets
        counts = [0] * buckets
        for stamps in result.value.values():
            for ts in stamps:
                index = min(buckets - 1, int((ts - t1) / bucket_us))
                counts[index] += 1
        return counts, bucket_us, result.elapsed_us

    def touched_lpas_between(self, t1, t2, threads=1):
        """Set of LPAs modified in a window — the forensic footprint."""
        result = self.kits.time_query_range(t1, t2, threads=threads)
        return set(result.value), result.elapsed_us
