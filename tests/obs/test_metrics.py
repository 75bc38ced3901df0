"""Unit tests for the metrics primitives (Counter/Gauge/Histogram/Registry)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_decrease(self):
        with pytest.raises(ReproError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(10)
        g.set(3)
        assert g.value == 3


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram("x")
        assert h.count == 0
        assert h.mean_us == 0.0
        assert h.percentile(50) == 0.0
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == 0.0

    def test_small_values_exact(self):
        h = LatencyHistogram("x")
        for v in (0, 1, 5, 15):
            h.record(v)
        assert h.bucket_counts() == [(0, 1), (1, 1), (5, 1), (15, 1)]

    def test_exact_extremes(self):
        h = LatencyHistogram("x")
        for v in (75, 750, 123_456):
            h.record(v)
        assert h.percentile(0) == 75.0
        assert h.percentile(100) == 123_456.0
        assert h.min_us == 75
        assert h.max_us == 123_456

    def test_mean_and_total_exact(self):
        h = LatencyHistogram("x")
        for v in (10, 20, 99):
            h.record(v)
        assert h.total_us == 129
        assert h.mean_us == pytest.approx(129 / 3)

    def test_single_sample(self):
        h = LatencyHistogram("x")
        h.record(750)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 750.0

    def test_rejects_negative(self):
        with pytest.raises(ReproError):
            LatencyHistogram("x").record(-1)

    def test_percentile_bounds_checked(self):
        h = LatencyHistogram("x")
        h.record(1)
        with pytest.raises(ReproError):
            h.percentile(101)
        with pytest.raises(ReproError):
            h.percentile(-0.5)

    def test_relative_error_bounded(self):
        # Every recorded value lands in a bucket whose bounds are within
        # 1/16 of its magnitude; the reported percentile (bucket upper
        # bound) can overshoot the true value by at most ~6.7%.
        h = LatencyHistogram("x")
        value = 1_000_003
        h.record(value)
        reported = h.percentile(50)
        assert value <= reported <= value * (1 + 1 / 15)

    def test_percentiles_monotonic(self):
        h = LatencyHistogram("x")
        for v in range(0, 5000, 7):
            h.record(v)
        ps = [h.percentile(p) for p in (1, 10, 25, 50, 75, 90, 99)]
        assert ps == sorted(ps)

    @given(st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_count_equals_bucket_sum(self, values):
        h = LatencyHistogram("x")
        for v in values:
            h.record(v)
        assert h.count == sum(n for _low, n in h.bucket_counts())
        assert h.count == len(values)

    @given(st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_percentiles_within_range(self, values):
        h = LatencyHistogram("x")
        for v in values:
            h.record(v)
        lo, hi = min(values), max(values)
        for p in (0, 10, 50, 90, 100):
            assert lo <= h.percentile(p) <= hi

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=40).map(lambda k: 2**k),
                st.integers(min_value=1, max_value=40).map(lambda k: 2**k - 1),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_record_buckets_match_bucket_index(self, values):
        """The fold buckets each sample by ``_bucket_index``, the spec.
        Exact side totals included."""
        h = LatencyHistogram("x")
        expected = {}
        for v in values:
            h.record(v)
            low = LatencyHistogram._bucket_bounds(LatencyHistogram._bucket_index(v))[0]
            expected[low] = expected.get(low, 0) + 1
        assert h.bucket_counts() == sorted(expected.items())
        assert (h.count, h.total_us) == (len(values), sum(values))
        assert (h.min_us, h.max_us) == (min(values), max(values))

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("record"), st.integers(-3, 2**20)),
                st.tuples(st.just("record"), st.floats(-2.0, 5000.0)),
                st.tuples(st.just("record"), st.booleans()),
                st.tuples(st.just("fold"), st.none()),
            ),
            max_size=120,
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_buffered_recording_snapshots_as_eager_recording(self, steps, fold_at):
        """Any sequence of ``record`` calls, its buffer folded at any point
        (by a read, or by filling up), snapshots as recording each sample
        straight into the totals and buckets: non-ints are coerced and a
        negative sample is refused, at the call, either way."""
        small = type("Small", (LatencyHistogram,), {"__slots__": (), "FOLD_AT": fold_at})
        h = small("x")
        eager = {"count": 0, "total": 0, "min": None, "max": 0, "buckets": {}}
        for op, value in steps:
            if op == "fold":
                h.count  # any read folds the buffer
                continue
            sample = int(value)
            if sample < 0:
                with pytest.raises(ReproError):
                    h.record(value)
                continue
            h.record(value)
            eager["count"] += 1
            eager["total"] += sample
            eager["min"] = sample if eager["min"] is None else min(eager["min"], sample)
            eager["max"] = max(eager["max"], sample)
            low = LatencyHistogram._bucket_bounds(LatencyHistogram._bucket_index(sample))[0]
            eager["buckets"][low] = eager["buckets"].get(low, 0) + 1
            assert len(h.samples) < fold_at  # memory stays bounded
        snap = h.snapshot()
        assert snap["count"] == eager["count"]
        assert snap["total_us"] == eager["total"]
        assert snap["min_us"] == (eager["min"] if eager["min"] is not None else 0)
        assert h.min_us == eager["min"]
        assert snap["max_us"] == eager["max"]
        assert snap["buckets"] == [[low, n] for low, n in sorted(eager["buckets"].items())]

    def test_record_coerces_non_ints(self):
        h = LatencyHistogram("x")
        for value in (17.9, True, 300.0):
            h.record(value)
        reference = LatencyHistogram("y")
        for value in (17, 1, 300):
            reference.record(value)
        assert h.snapshot() == reference.snapshot()
        assert all(type(k) is int for k in h._buckets)
        assert type(h.total_us) is int and type(h.max_us) is int
        with pytest.raises(ReproError):
            h.record(-0.5 - 1)
        assert h.count == 3  # the rejected sample left no trace

    def test_bucket_bounds_roundtrip(self):
        for value in (0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 10**6, 10**9):
            index = LatencyHistogram._bucket_index(value)
            low, high = LatencyHistogram._bucket_bounds(index)
            assert low <= value <= high


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ReproError):
            reg.gauge("a")
        with pytest.raises(ReproError):
            reg.histogram("a")

    def test_snapshot_groups_and_sorts(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc(2)
        reg.gauge("a.gauge").set(7)
        reg.histogram("m.hist").record(10)
        snap = reg.snapshot()
        assert snap["counters"] == {"z.count": 2}
        assert snap["gauges"] == {"a.gauge": 7}
        assert snap["histograms"]["m.hist"]["count"] == 1
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_snapshot_is_json_stable(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(3)
            reg.counter("a").inc(1)
            reg.histogram("h").record(99)
            reg.gauge("g").set(-4)
            return reg.to_json()

        first, second = build(), build()
        assert first == second
        json.loads(first)  # valid JSON

    def test_insertion_order_does_not_change_snapshot(self):
        reg1 = MetricsRegistry()
        reg1.counter("a").inc()
        reg1.counter("b").inc()
        reg2 = MetricsRegistry()
        reg2.counter("b").inc()
        reg2.counter("a").inc()
        assert reg1.to_json() == reg2.to_json()

    def test_get_and_names(self):
        reg = MetricsRegistry()
        c = reg.counter("only")
        assert reg.get("only") is c
        assert reg.get("missing") is None
        assert reg.names() == ["only"]
