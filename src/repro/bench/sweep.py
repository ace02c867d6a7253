"""Exhaustive plan sweeps (the experiments behind Figs. 13 and 14).

For every partition of a view tree's edge set, execute the generated
queries against the simulated RDBMS and record query-only time (server
execution) and total time (plus transfer).  Plans whose subqueries exceed
the per-subquery budget are recorded as timed out ("no time was reported").

The 2^|E| plans share almost all of their work: the same subtree query
recurs across most partitions.  Specs come from the view definition's
generator, which keeps them (plans hash-consed, lowered once) for the
process.  A plan's cost is the sum of its streams' costs, so by default a
sweep prices each distinct stream once, in a table of its own — a
stream's ``(server_ms, transfer_ms, timed_out)`` under its plan
fingerprint, row format and transfer model — and adds up a plan from it:
wall-clock drops by an order of magnitude while every simulated
millisecond (including timeout behaviour) stays bit-identical.  The
streams that do run share sub-plans, so they run on a connection of the
sweep's own whose engine holds an empty
:class:`~repro.relational.cache.NodeResultCache`: nothing else keeps
pipeline and breaker results from one execution to the next, and nothing
on the caller's connection changes while a sweep runs.  Plans run one
after another in input order; ``workers`` is, as everywhere, each plan's
*simulated* dispatch width.
"""

import gc
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.options import resolve_options
from repro.core.silkroute import ViewDefinition
from repro.core.sqlgen import PlanStyle
from repro.obs import obs_parts
from repro.relational.cache import BoundedCache, NodeResultCache
from repro.relational.connection import Connection
from repro.relational.dispatch import check_generations, execute_specs


@dataclass(frozen=True, slots=True)
class PlanTiming:
    """One plan's outcome in a sweep.

    ``failed`` marks a plan whose stream exhausted its retries under fault
    injection (sweeps record the failure instead of degrading the plan —
    degradation is :meth:`repro.core.silkroute.XmlView.materialize`'s
    job).  ``resilience`` totals the plan's streams'
    :class:`~repro.relational.faults.StreamAttemptStats` when the sweep ran
    under a :class:`~repro.relational.resilience.Resilience`, and is None
    otherwise.
    """

    partition: object
    n_streams: int
    query_ms: float = None
    transfer_ms: float = None
    timed_out: bool = False
    failed: bool = False
    resilience: object = None

    @property
    def total_ms(self):
        if self.timed_out or self.failed:
            return None
        return self.query_ms + self.transfer_ms


@dataclass
class SweepResult:
    """All plan timings for one (query, configuration, style) sweep."""

    timings: list
    style: PlanStyle
    reduced: bool
    #: :class:`~repro.relational.cache.CacheStats` snapshot of the
    #: sweep's price table at its end, or None when every stream ran.
    cache_stats: object = None

    def __post_init__(self):
        self._by_partition = {t.partition: t for t in self.timings}

    def completed(self):
        return [
            t for t in self.timings if not t.timed_out and not t.failed
        ]

    def timed_out(self):
        return [t for t in self.timings if t.timed_out]

    def failed(self):
        return [t for t in self.timings if t.failed]

    def shed(self):
        # Nothing sheds a plan any more.  Kept for its one caller, the
        # frozen harness (benchmarks/perf/perf_workloads.py:367), until the
        # benchmark-only PR of ROADMAP item 1(b) drops the call.
        return []

    def fastest(self, n=1, key="query_ms"):
        ranked = sorted(self.completed(), key=lambda t: getattr(t, key))
        return ranked[:n]

    def timing_for(self, partition):
        try:
            return self._by_partition[partition]
        except KeyError:
            raise KeyError(f"no timing recorded for {partition}") from None

    def by_stream_count(self, key="query_ms"):
        """{n_streams: [values]} — the scatter series of Figs. 13/14."""
        series = {}
        for timing in self.completed():
            series.setdefault(timing.n_streams, []).append(getattr(timing, key))
        for values in series.values():
            values.sort()
        return series


def run_single_partition(tree, schema, connection, partition, generator=None,
                         executor=None, expect_generations=None, table=None,
                         options=None, **overrides):
    """Execute one plan; returns a :class:`PlanTiming`.

    Execution knobs come from ``options``/``overrides`` as everywhere
    (``reduce`` defaults to False) and go to
    :func:`repro.relational.dispatch.execute_specs` as one bundle; the
    remaining arguments are the per-sweep state :func:`sweep_partitions`
    shares between its plans (``generator``: the definition's, else the
    bare tree is defined here; ``executor``: the sweep's resilient
    executor, whose one epoch spans all partitions, so routing does not
    depend on partition order; ``table``: the sweep's price table, see
    :func:`_priced`).
    Under ``resilience`` a stream that exhausts its retries marks the
    timing ``failed`` (sweeps record, they do not degrade).  With ``obs`` (an
    :class:`~repro.obs.ObsOptions` session) the run is wrapped in a
    ``partition`` span and records per-stream metrics.
    """
    opts = resolve_options(options, overrides, reduce=False)
    tracer, _ = obs_parts(opts.obs)
    if generator is None:   # a bare tree: define it here
        generator = ViewDefinition(tree, schema).generator(
            opts.style, opts.reduce, opts.keep)
    with tracer.span("partition") as partition_span:
        specs = generator.streams_for_partition(partition, tracer)
        if table is None:
            result = execute_specs(
                connection, specs, executor=executor,
                expect_generations=expect_generations, options=opts,
            )
            costs = [(s.server_ms, s.transfer_ms) for s in result.streams]
            stats = _spent(result)
            timed_out = result.timeout is not None
            failed = result.failure is not None
        else:
            check_generations(connection.database, expect_generations)
            costs, stats, timed_out, failed = _priced(
                table, connection, specs, executor, opts)
        query_ms = transfer_ms = None
        if not (timed_out or failed):
            query_ms = transfer_ms = 0.0
            for server_ms, stream_transfer_ms in costs:
                query_ms += server_ms
                transfer_ms += stream_transfer_ms
        timing = PlanTiming(
            partition=partition,
            n_streams=len(specs),
            query_ms=query_ms,
            transfer_ms=transfer_ms,
            timed_out=timed_out,
            failed=failed,
            resilience=(None if opts.resilience is None
                        else opts.resilience.summary(stats)),
        )
        partition_span.set(n_streams=timing.n_streams)
        if timing.timed_out:
            partition_span.set(timed_out=True)
        elif timing.failed:
            partition_span.set(failed=True)
        else:
            partition_span.set_sim(timing.total_ms)
        return timing


def _spent(result):
    """The attempt stats a dispatch spent: its streams', and those of the
    stream that failed for good."""
    stats = list(result.stats)
    if result.failure is not None:
        stats.append(result.failure.stats)
    return stats


def _priced(table, connection, specs, executor, opts):
    """``(costs, stats, timed_out, failed)`` of a plan's ``specs`` from a
    sweep's price ``table``: ``(server_ms, transfer_ms, timed_out)`` per
    stream plan fingerprint, row format and the transfer model of the
    connection the stream goes to first (the routing epoch's best-ranked
    replica).  A stream is dispatched only on a miss, and priced only if
    it did not fail: the next plan that holds a failed stream dispatches
    it again.  A stream read from the table spends no attempt."""
    route = connection
    if executor is not None and executor.epoch is not None:
        route = executor.connections[executor.epoch.pick()]
    costs, stats = [], []
    for spec in specs:
        key = (spec.plan.fingerprint(), spec.compact, route.transfer_model)
        price = table.get(key)
        if price is None:
            result = execute_specs(connection, [spec], executor=executor,
                                   options=opts)
            stats += _spent(result)
            if result.failure is not None:
                return costs, stats, False, True
            if result.timeout is not None:
                price = (None, None, True)
            else:
                [stream] = result.streams
                price = (stream.server_ms, stream.transfer_ms, False)
            table.store(key, price)
        server_ms, transfer_ms, timed_out = price
        if timed_out:
            return costs, stats, True, False
        costs.append((server_ms, transfer_ms))
    return costs, stats, False, False


def sweep_partitions(tree, schema, connection, partitions=None,
                     progress=None, cache=True, definition=None, options=None,
                     **overrides):
    """Execute every plan (or the given ``partitions``); returns a
    :class:`SweepResult`.

    This is the engine behind :meth:`repro.Session.sweep`, which wraps
    the result in the session's :class:`~repro.session.QueryResult`.
    Execution knobs are the fields of
    :class:`~repro.core.options.ExecutionOptions`: bundle them in
    ``options=``, override single ones by keyword, or both — the keyword
    wins.  The per-method default ``reduce=False`` applies when neither a
    keyword nor an options object supplies a value.

    Specs (and, by default, the partitions) come from ``definition``, a
    view's :class:`~repro.core.silkroute.ViewDefinition` (else the bare
    ``tree`` is defined here).

    ``cache=True`` (the default) prices each distinct stream once, in a
    table of the sweep's own (a
    :class:`~repro.relational.cache.BoundedCache` named ``sweep_cache``,
    whose stats end up in :attr:`SweepResult.cache_stats`; see
    :func:`_priced`); ``cache=False`` executes every stream of every
    plan.  Both produce bit-identical simulated timings — only wall-clock
    changes.  Streams run on a connection of the sweep's own (the
    caller's database, cost model, transfer model and engine mode, no
    plan cache), whose engine keeps sub-plan results in a node cache of
    the sweep's; ``connection.engine.node_cache`` names it afterwards,
    for its stats, its entries dropped.  Nothing else on ``connection``
    is touched: an execution on it during the sweep (in ``progress``,
    say) sees its own caches.

    Plans run one after another and timings follow the input partition
    order; ``progress(done, total)`` is called after each.  ``workers``
    means what it means for every execution method — each plan's
    simulated dispatch width — so in a sweep, whose timings are per-stream
    sums, it changes nothing.

    Under ``resilience`` every plan's streams go through one executor: its
    replica pool's routing epoch spans the whole sweep (health folds once,
    at the end — partition order cannot change the routing).  A stream
    read from the price table is not dispatched, so it spends no attempt.

    A sweep's timings are only comparable if every plan saw the same
    data, so the per-table generation vector is pinned at the start and
    every plan checks it: a concurrent
    ``insert``/``update``/``delete`` raises
    :class:`~repro.common.errors.StaleGenerationError` instead of
    silently recording mixed-generation timings.  Mutate between sweeps,
    not during one; each sweep's caches start empty.

    The plan loop runs with the (process-wide) cyclic garbage collector
    paused; the caller's collector state is back when the sweep returns
    or raises.
    """
    if cache is not True and cache is not False:
        raise TypeError(f"cache= takes True or False, not {cache!r}")
    opts = resolve_options(options, overrides, reduce=False)
    style, reduce = opts.style, opts.reduce
    tracer, metrics = obs_parts(opts.obs)
    if definition is None:   # a bare tree: define it here
        definition = ViewDefinition(tree, schema)
    if partitions is None:
        partitions = definition.partitions
    generator = definition.generator(style, reduce, opts.keep)
    pinned_generations = connection.database.table_generations()
    own = Connection(connection.database, connection.engine.cost_model,
                     transfer_model=connection.transfer_model,
                     engine=connection.engine.mode)
    results = NodeResultCache()
    own.engine.results = connection.engine.node_cache = results
    table = BoundedCache("sweep_cache") if cache else None
    executor = None
    if opts.resilience is not None:
        executor = opts.resilience.executor(own)
    # Nothing the plan loop allocates is in a reference cycle: reference
    # counting frees all of it, and the collector would only rescan
    # millions of row tuples (DESIGN.md §6, "The collector").  It is
    # switched back on only if it was on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with executor.routing() if executor else nullcontext(), tracer.span(
            "sweep", style=style.value, plans=len(partitions),
        ) as sweep_span:
            timings = []
            for partition in partitions:
                timings.append(run_single_partition(
                    tree, schema, own, partition,
                    generator=generator, executor=executor,
                    expect_generations=pinned_generations, table=table,
                    options=opts,
                ))
                if progress is not None:
                    progress(len(timings), len(partitions))
            result = SweepResult(timings, style, reduce)
            sweep_span.set(completed=len(result.completed()))
    finally:
        # No later execution reads the sweep's kept values: they go, and
        # its counters stay.
        results.release()
        if collecting:
            gc.enable()
    metrics.inc("sweep.plans", len(partitions))
    if table is not None:
        result.cache_stats = table.stats()
        if metrics.enabled:
            table.publish(metrics)
    if metrics.enabled:
        results.publish(metrics)
    return result
