"""Ring-buffer structured event tracer.

Events are plain dicts with a fixed envelope — ``seq`` (monotonic),
``t_us`` (sim-clock timestamp supplied by the emitter; the tracer has no
clock of its own), ``cat`` (one of :data:`CATEGORIES`), ``name``, and
arbitrary integer/string detail fields.  The buffer is a bounded ring:
old events fall off the back and ``dropped`` counts them, so tracing a
long run costs O(capacity) memory.

Tracing is off by default and the hot paths guard every emit with
``if tracer.enabled:`` so a disabled tracer costs one attribute check
per candidate event — the "near-zero when disabled" budget in
docs/OBSERVABILITY.md.
"""

from collections import deque

from repro.common.errors import ReproError

__all__ = ["CATEGORIES", "EventTracer"]

#: The closed set of event categories (docs/OBSERVABILITY.md).
CATEGORIES = ("flash-op", "gc", "delta", "expire", "fault", "nvme", "scrub", "sched")

_CATEGORY_SET = frozenset(CATEGORIES)


class EventTracer:
    """Bounded ring of structured simulation events."""

    def __init__(self, capacity=4096, enabled=False):
        if capacity < 1:
            raise ReproError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self.seq = 0
        self.dropped = 0
        self._ring = deque(maxlen=capacity)

    def emit(self, category, name, t_us, **fields):
        """Record one event; no-op (and near-free) when disabled."""
        if not self.enabled:
            return
        if category not in _CATEGORY_SET:
            raise ReproError("unknown trace category %r" % (category,))
        if len(self._ring) == self.capacity:
            self.dropped += 1
        event = {"seq": self.seq, "t_us": int(t_us), "cat": category, "name": name}
        if fields:
            event.update(fields)
        self._ring.append(event)
        self.seq += 1

    def events(self, category=None):
        """Events currently in the ring, oldest first."""
        if category is None:
            return list(self._ring)
        return [e for e in self._ring if e["cat"] == category]

    def drain(self):
        """Return and clear the ring (seq/dropped keep counting)."""
        events = list(self._ring)
        self._ring.clear()
        return events

    def clear(self):
        self._ring.clear()

    def __len__(self):
        return len(self._ring)

    def __repr__(self):
        return "EventTracer(%d/%d events, %d dropped, %s)" % (
            len(self._ring),
            self.capacity,
            self.dropped,
            "on" if self.enabled else "off",
        )
