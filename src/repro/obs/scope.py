"""Per-device observability scope: one registry + one tracer.

A :class:`Scope` is the unit the SSD layers share.  ``BaseSSD`` builds
one and hands it to its ``FlashDevice`` and ``NVMeController``, so every
metric and trace event for one simulated drive lands in one place — and
two drives in one process (every differential test) stay fully
independent.  There is intentionally no module-level default scope.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import EventTracer

__all__ = ["Scope"]


class Scope:
    """Bundle of a :class:`MetricsRegistry` and an :class:`EventTracer`."""

    __slots__ = ("metrics", "trace")

    def __init__(self, tracing=False):
        self.metrics = MetricsRegistry()
        self.trace = EventTracer(enabled=tracing)

    def snapshot(self):
        """JSON-stable metrics snapshot (trace events are not included —
        drain the ring explicitly with ``scope.trace.drain()``)."""
        return self.metrics.snapshot()

    def to_json(self, indent=None):
        return self.metrics.to_json(indent=indent)

    def __repr__(self):
        return "Scope(%r, %r)" % (self.metrics, self.trace)
