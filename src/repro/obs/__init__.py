"""Deterministic, zero-dependency observability substrate.

Layer 0 (with ``repro.common``): everything above may import ``repro.obs``;
``repro.obs`` imports nothing above ``repro.common`` — enforced by the
``layering-order`` almanac-lint rule.
"""

from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from repro.obs.scope import Scope
from repro.obs.tracer import CATEGORIES, EventTracer

__all__ = [
    "CATEGORIES",
    "Counter",
    "EventTracer",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Scope",
]
