"""Observability: structured tracing, metrics, and exportable profiles.

The paper's whole argument (Figs. 13–18) rests on knowing *where time
goes* — query vs. transfer vs. tagging, per decomposition.  This package
makes that visible for any execution, not just the benchmark sweeps:

* :mod:`repro.obs.tracer` — nested spans over the wall and simulated
  clocks, safe to share between the server's request threads;
* :mod:`repro.obs.metrics` — counters/gauges/histograms snapshotable as a
  plain dict;
* :mod:`repro.obs.export` — Chrome-trace JSON (``about:tracing`` /
  Perfetto), a human-readable profile tree, and a JSON metrics dump.

One :class:`ObsOptions` object is an observability *session*: build one,
put it in the frozen :class:`~repro.core.options.ExecutionOptions`, run,
then export::

    from repro import ExecutionOptions, ObsOptions

    obs = ObsOptions()
    result = view.materialize(options=ExecutionOptions(obs=obs))
    open("trace.json", "w").write(obs.chrome_trace_json())
    print(obs.profile())
    print(obs.metrics.snapshot()["counters"]["streams.executed"])

Span taxonomy (see DESIGN.md §9): operation roots ``materialize`` /
``materialize_to`` / ``sweep``; stages ``plan``, ``reduce``, ``sqlgen``,
``dispatch``, ``stream:<label>``, ``retry``, ``cache``, ``decode``,
``merge``, ``tag``; sweeps add one ``partition`` span per plan.

Tracing defaults **off** everywhere: when no session is supplied the
instrumentation points resolve to the process-wide no-op
:data:`~repro.obs.tracer.NULL_TRACER` / :data:`~repro.obs.metrics.NULL_METRICS`
(see :func:`obs_parts`), no instrumentation is per-row, and — the
contract the observability tests pin down — with tracing *on* the XML
output and every simulated timing are byte-identical to a tracing-off
run.  Observation never perturbs the simulation.
"""

from dataclasses import dataclass

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    metrics_json,
    profile_tree,
)
from repro.obs.metrics import NULL_METRICS, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Span, SpanEvent, Tracer


class ObsOptions:
    """One observability session: a tracer plus a metrics registry.

    ``trace=False`` / ``metrics=False`` disable either half individually
    (the disabled half is the shared null object).  The session object is
    intentionally *mutable* — it accumulates spans and counters as
    executions run — while remaining safe to embed in the frozen, hashable
    :class:`~repro.core.options.ExecutionOptions` (sessions hash by
    identity and never compare equal unless identical).

    Reusing one session across several executions accumulates; reports
    attach the live session (:attr:`PlanReport.obs
    <repro.core.silkroute.PlanReport.obs>`), so copy
    ``metrics.snapshot()`` when you need a frozen view.
    """

    def __init__(self, trace=True, metrics=True):
        self.tracer = Tracer() if trace else NULL_TRACER
        self.metrics = MetricsRegistry() if metrics else NULL_METRICS

    # -- exports -----------------------------------------------------------

    def chrome_trace(self):
        """The recorded spans as Chrome Trace Event dicts."""
        return chrome_trace(self.tracer)

    def chrome_trace_json(self):
        """The recorded spans as a Chrome-trace JSON string (loadable in
        ``about:tracing`` / Perfetto)."""
        return chrome_trace_json(self.tracer)

    def profile(self):
        """The recorded spans as an indented text profile tree."""
        return profile_tree(self.tracer)


def obs_parts(obs):
    """Resolve an optional session to its ``(tracer, metrics)`` pair.

    The one idiom every instrumentation point uses::

        tracer, metrics = obs_parts(opts.obs)

    ``None`` (tracing off — the default everywhere) yields the shared
    null objects, keeping the off path allocation-free.
    """
    if obs is None:
        return NULL_TRACER, NULL_METRICS
    return obs.tracer, obs.metrics


__all__ = [
    "ObsOptions",
    "obs_parts",
    "Tracer",
    "Span",
    "SpanEvent",
    "NULL_TRACER",
    "NULL_SPAN",
    "MetricsRegistry",
    "Histogram",
    "NULL_METRICS",
    "chrome_trace",
    "chrome_trace_json",
    "profile_tree",
    "metrics_json",
]
