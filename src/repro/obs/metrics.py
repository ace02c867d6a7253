"""Metrics: counters, gauges, and histograms with a dict snapshot.

A :class:`MetricsRegistry` is the quantitative half of an observability
session (:class:`~repro.obs.ObsOptions`): while the tracer records *where
time went*, the registry accumulates *how much happened* — attempts,
retries, faults injected, tuples transferred, bytes tagged, per-stream
query/transfer milliseconds.

Three instrument kinds, all created on first use by name:

* **counters** (:meth:`MetricsRegistry.inc`) — monotone sums; values may
  be fractional (``retry.backoff_ms`` accumulates simulated milliseconds),
* **gauges** (:meth:`MetricsRegistry.gauge`) — last-write-wins readings
  (e.g. plan-cache occupancy),
* **histograms** (:meth:`MetricsRegistry.observe`) — count/sum/min/max
  summaries of per-stream distributions.

Everything is lock-protected (one registry may serve concurrent requests)
and :meth:`~MetricsRegistry.snapshot` returns a plain nested dict that is
``json.dumps``-able as is.

The registry's counters are recorded from the *same*
:class:`~repro.relational.faults.StreamAttemptStats` objects the plan
report sums (see :meth:`StreamAttemptStats.record
<repro.relational.faults.StreamAttemptStats.record>`), each exactly once
— which is what makes the snapshot reconcile with
:class:`~repro.core.silkroute.PlanReport` fields without double counting.

:data:`NULL_METRICS` is the disabled registry (the default at every
instrumentation point): every method is a no-op.
"""

import threading


class Histogram:
    """A count/sum/min/max summary of observed values, with percentile
    estimates from a bounded sample reservoir.

    The first :data:`SAMPLE_CAP` observations are retained verbatim (the
    count/sum/min/max summary keeps accumulating beyond it), so
    :meth:`percentile` is exact for short-lived sessions and a
    deterministic prefix estimate for unbounded ones — the serving
    layer's latency metrics (``serve.latency_ms`` p50/p95/p99) ride on
    this."""

    #: Observations kept for percentile estimation; summaries are unbounded.
    SAMPLE_CAP = 4096

    __slots__ = ("count", "total", "min", "max", "_samples")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._samples = []

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self.SAMPLE_CAP:
            self._samples.append(value)

    @property
    def mean(self):
        if not self.count:
            return None
        return self.total / self.count

    def percentile(self, q):
        """The ``q``-th percentile (``0 <= q <= 100``) of the retained
        samples, nearest-rank; None when nothing was observed."""
        if not self._samples:
            return None
        ranked = sorted(self._samples)
        rank = max(0, min(len(ranked) - 1,
                          int(round(q / 100.0 * len(ranked) + 0.5)) - 1))
        return ranked[rank]

    def as_dict(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name, amount=1):
        """Add ``amount`` (int or float) to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name, value):
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name, value):
        """Record one observation into histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # -- reading -----------------------------------------------------------

    def counter(self, name, default=0):
        """The current value of counter ``name``."""
        with self._lock:
            return self._counters.get(name, default)

    def snapshot(self):
        """The whole registry as a plain (JSON-dumpable) nested dict:
        ``{"counters": {...}, "gauges": {...}, "histograms": {name:
        {count, sum, min, max, mean}}}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.as_dict() for name, h in self._histograms.items()
                },
            }


class _NullMetrics:
    """The disabled registry: records nothing, reports nothing."""

    __slots__ = ()

    enabled = False

    def inc(self, name, amount=1):
        pass

    def gauge(self, name, value):
        pass


#: The process-wide disabled registry (metrics off).
NULL_METRICS = _NullMetrics()
