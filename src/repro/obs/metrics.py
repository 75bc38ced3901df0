"""Metric primitives: counters, gauges, and HDR-style latency histograms.

A :class:`MetricsRegistry` owns named metrics for one device instance —
there is deliberately no module-level registry, so two SSDs in one
process (every differential experiment) never share state.  Snapshots
are JSON-stable: building the same device twice and running the same
seeded workload produces byte-identical :meth:`MetricsRegistry.to_json`
output, which is what the golden determinism tests pin.

The histogram is HDR-style: log2 major buckets split into 16 linear
sub-buckets, so relative quantile error is bounded (~6%) at any scale
from one microsecond to days.  Recording checks a sample and buffers it;
the buffer is folded by value in bulk — cheap enough to sit on the
flash-op hot path, exact and deterministic by construction (no
sampling, no RNG).
"""

import collections

from repro.common.errors import ReproError

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing named count (a per-flash-op path adds
    1 to ``value`` itself: ``inc()`` without the call)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise ReproError("counter %s cannot decrease" % self.name)
        self.value += n
        return self.value

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A named point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value
        return value

    def __repr__(self):
        return "Gauge(%s=%r)" % (self.name, self.value)


#: Linear sub-buckets per power of two (HDR "significant digits" knob).
_SUB_BUCKETS = 16
_SUB_BITS = 4  # log2(_SUB_BUCKETS)


class LatencyHistogram:
    """Fixed-precision histogram over non-negative integer microseconds.

    Values below ``_SUB_BUCKETS`` are recorded exactly; larger values
    land in one of 16 linear sub-buckets of their power-of-two range, so
    any recorded value is reported within 1/16 of its magnitude.  Exact
    ``count`` / ``total_us`` / ``min_us`` / ``max_us`` are tracked on
    the side; ``percentile(0)`` and ``percentile(100)`` return the exact
    extremes.

    :meth:`record` checks a sample and buffers it; the buffer is folded
    into the totals and buckets by value, in bulk, once it holds
    ``FOLD_AT`` samples and before any read.  The totals are order-free
    sums, so the fold is exact whenever it runs.

    A per-flash-op path records without the call: it appends a sample it
    knows to be a non-negative ``int`` to :attr:`samples` itself and
    calls :meth:`fold` once the buffer holds ``FOLD_AT`` samples —
    ``record`` inlined, the way a hot counter adds to ``value``.
    """

    __slots__ = (
        "name", "_count", "_total_us", "_min_us", "_max_us", "_buckets", "samples"
    )

    #: Samples buffered before :meth:`record` folds them.
    FOLD_AT = 1024

    def __init__(self, name):
        self.name = name
        self._count = 0
        self._total_us = 0
        self._min_us = None
        self._max_us = 0
        self._buckets = {}  # bucket index -> count (sparse)
        #: The buffer of unfolded samples (one list for the histogram's
        #: life: a hot path may bind it once).
        self.samples = []

    @staticmethod
    def _bucket_index(value):
        if value < _SUB_BUCKETS:
            return value
        shift = value.bit_length() - _SUB_BITS - 1
        # top is in [16, 32): 4 magnitude bits below the leading one.
        top = value >> shift
        return (shift + 1) * _SUB_BUCKETS + (top - _SUB_BUCKETS)

    @staticmethod
    def _bucket_bounds(index):
        """Inclusive ``(low, high)`` value range of bucket ``index``."""
        if index < _SUB_BUCKETS:
            return index, index
        shift = index // _SUB_BUCKETS - 1
        top = _SUB_BUCKETS + index % _SUB_BUCKETS
        low = top << shift
        high = ((top + 1) << shift) - 1
        return low, high

    def record(self, latency_us):
        """Record one sample (coerced to ``int``; negative is refused)."""
        if latency_us.__class__ is not int:
            latency_us = int(latency_us)
        if latency_us < 0:
            raise ReproError("latency cannot be negative")
        samples = self.samples
        samples.append(latency_us)
        if len(samples) >= self.FOLD_AT:
            self.fold()

    def fold(self):
        """Move the buffered samples into the totals and buckets; returns
        the histogram (every read of a total folds first)."""
        samples = self.samples
        if not samples:
            return self
        by_value = collections.Counter(samples)
        samples.clear()
        buckets = self._buckets
        bucket_index = self._bucket_index
        for value, n in by_value.items():
            self._count += n
            self._total_us += value * n
            index = bucket_index(value)
            buckets[index] = buckets.get(index, 0) + n
        low = min(by_value)
        if self._min_us is None or low < self._min_us:
            self._min_us = low
        self._max_us = max(self._max_us, max(by_value))
        return self

    count = property(lambda self: self.fold()._count)
    total_us = property(lambda self: self.fold()._total_us)
    min_us = property(lambda self: self.fold()._min_us)  # None before a sample
    max_us = property(lambda self: self.fold()._max_us)

    @property
    def mean_us(self):
        return self.total_us / self.count if self.count else 0.0

    def percentile(self, p):
        """p-th percentile (0..100); exact at both extremes, ~6% inside."""
        if not 0 <= p <= 100:
            raise ReproError("percentile must be in [0, 100]")
        if self.count == 0:  # folds the buffer
            return 0.0
        if p == 0:
            return float(self.min_us)
        if p == 100:
            return float(self.max_us)
        # Nearest-rank over buckets; report the bucket's upper bound
        # (every recorded value in the bucket is <= it), clamped to the
        # exact extremes.
        rank = max(1, -(-p * self.count // 100))  # ceil(p/100 * count)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                _low, high = self._bucket_bounds(index)
                return float(min(max(high, self.min_us), self.max_us))
        return float(self.max_us)

    def bucket_counts(self):
        """Sorted ``[(bucket_low_us, count), ...]`` (invariant: counts sum to count)."""
        buckets = self.fold()._buckets
        return [
            (self._bucket_bounds(index)[0], buckets[index])
            for index in sorted(buckets)
        ]

    def snapshot(self):
        return {
            "count": self.count,
            "total_us": self.total_us,
            "min_us": self.min_us if self.min_us is not None else 0,
            "max_us": self.max_us,
            "mean_us": round(self.mean_us, 6),
            "p50_us": self.percentile(50),
            "p90_us": self.percentile(90),
            "p99_us": self.percentile(99),
            "buckets": [[low, n] for low, n in self.bucket_counts()],
        }

    def __repr__(self):
        return "LatencyHistogram(%s: n=%d, mean=%.1fus, p99=%.1fus)" % (
            self.name,
            self.count,
            self.mean_us,
            self.percentile(99),
        )


class MetricsRegistry:
    """Named metrics for one device instance.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (the same
    name always returns the same object; a name can hold only one metric
    type).  Metric names are dotted, lowercase, and catalogued in
    docs/OBSERVABILITY.md.
    """

    def __init__(self):
        self._metrics = {}

    def _get(self, name, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ReproError(
                "metric %r is a %s, not a %s"
                % (name, type(metric).__name__, cls.__name__)
            )
        return metric

    def counter(self, name):
        return self._get(name, Counter)

    def gauge(self, name):
        return self._get(name, Gauge)

    def histogram(self, name):
        return self._get(name, LatencyHistogram)

    def names(self):
        return sorted(self._metrics)

    def get(self, name):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def snapshot(self):
        """JSON-stable dict of every metric, grouped by type, sorted by name."""
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent=None):
        """Canonical JSON rendering (sorted keys, stable separators)."""
        import json

        return json.dumps(
            self.snapshot(), sort_keys=True, indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def __repr__(self):
        return "MetricsRegistry(%d metrics)" % len(self._metrics)
