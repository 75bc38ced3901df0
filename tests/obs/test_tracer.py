"""Unit tests for the ring-buffer structured event tracer."""

import pytest

from repro.common.errors import ReproError
from repro.obs.tracer import CATEGORIES, EventTracer
from repro.obs.scope import Scope


class TestEventTracer:
    def test_disabled_by_default_and_records_nothing(self):
        tr = EventTracer()
        assert not tr.enabled
        tr.emit("gc", "reclaim", 10, pba=3)
        assert len(tr) == 0
        assert tr.events() == []

    def test_enabled_records_structured_events(self):
        tr = EventTracer(enabled=True)
        tr.emit("gc", "reclaim", 10, pba=3, migrated=2)
        tr.emit("flash-op", "read", 12, ppa=44)
        events = tr.events()
        assert len(events) == 2
        assert events[0] == {
            "seq": 0,
            "t_us": 10,
            "cat": "gc",
            "name": "reclaim",
            "pba": 3,
            "migrated": 2,
        }
        assert events[1]["seq"] == 1
        assert events[1]["cat"] == "flash-op"

    def test_unknown_category_rejected(self):
        tr = EventTracer(enabled=True)
        with pytest.raises(ReproError):
            tr.emit("bogus", "x", 0)

    def test_all_declared_categories_accepted(self):
        tr = EventTracer(enabled=True)
        for cat in CATEGORIES:
            tr.emit(cat, "ok", 1)
        assert len(tr) == len(CATEGORIES)

    def test_category_filter(self):
        tr = EventTracer(enabled=True)
        tr.emit("gc", "a", 1)
        tr.emit("nvme", "b", 2)
        tr.emit("gc", "c", 3)
        assert [e["name"] for e in tr.events("gc")] == ["a", "c"]
        assert [e["name"] for e in tr.events("nvme")] == ["b"]

    def test_ring_capacity_drops_oldest(self):
        tr = EventTracer(capacity=3, enabled=True)
        for i in range(5):
            tr.emit("gc", "e", i)
        events = tr.events()
        assert len(events) == 3
        assert [e["t_us"] for e in events] == [2, 3, 4]
        assert tr.dropped == 2
        # seq numbers keep increasing past drops
        assert [e["seq"] for e in events] == [2, 3, 4]

    def test_drain_returns_and_clears(self):
        tr = EventTracer(enabled=True)
        tr.emit("delta", "flush", 5)
        drained = tr.drain()
        assert len(drained) == 1
        assert len(tr) == 0
        tr.emit("delta", "flush", 6)
        # seq continues after drain
        assert tr.events()[0]["seq"] == 1

    def test_clear(self):
        tr = EventTracer(enabled=True)
        tr.emit("fault", "READ_FLIP", 1)
        tr.clear()
        assert len(tr) == 0


class TestScope:
    def test_bundles_metrics_and_trace(self):
        scope = Scope(tracing=True)
        scope.metrics.counter("c").inc(2)
        scope.trace.emit("gc", "reclaim", 1)
        snap = scope.snapshot()
        assert snap["counters"]["c"] == 2
        assert len(scope.trace) == 1

    def test_default_scope_tracing_off(self):
        scope = Scope()
        assert not scope.trace.enabled

    def test_scopes_are_independent(self):
        a, b = Scope(), Scope()
        a.metrics.counter("c").inc()
        assert b.metrics.get("c") is None
