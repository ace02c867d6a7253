"""The SilkRoute facade: define an RXL view, pick a plan, get XML.

Ties the whole pipeline together (Fig. 7's architecture): RXL text → view
tree (+labels) → partition → SQL generation → execution over the connection
→ stream integration → tagging.  This is the public entry point a
downstream user works with::

    silk = SilkRoute(connection)
    view = silk.define_view(RXL_TEXT)
    result = view.materialize()            # greedy-chosen plan
    print(result.xml)
    print(result.report.total_ms)

Execution knobs can be passed individually or bundled in a frozen
:class:`~repro.core.options.ExecutionOptions` (``options=``); explicit
keywords override option fields.

Resilience wraps this path and does not run through it: under an
``ExecutionOptions.resilience``
(:class:`~repro.relational.resilience.Resilience`) the dispatch hands each
query to that policy's executor instead of the connection.  What stays
here is *degradation*, because it re-plans along the greedy family
(Sec. 5): under a ``retry`` policy, a stream that exhausts its retries is
re-planned into finer streams (the cached greedy family's optional edges
first, then the full cut) whose sorted outputs the integration walks
(or merges) like any plan's.  The document comes out byte-identical to the fault-free
run, just later; only when a single-node stream keeps failing does the
:class:`~repro.common.errors.TransientConnectionError` propagate, with
the partial :class:`PlanReport` attached.
"""

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.common.errors import PlanError, TimeoutExceeded
from repro.core.greedy import GreedyPlanner
from repro.core.labeling import label_view_tree
from repro.core.options import resolve_options
from repro.core.partition import (
    Partition,
    Subtree,
    enumerate_partitions,
    fully_partitioned,
    partition_subtrees,
    unified_partition,
)
from repro.core.viewtree import build_view_tree
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.obs import obs_parts
from repro.relational.cache import BoundedCache, resolve_cache
from repro.relational.dispatch import (
    dispatch_width,
    execute_specs,
    record_stream,
    simulated_makespan,
)
from repro.relational.estimator import CostEstimator
from repro.rxl.parser import parse_rxl
from repro.xmlgen.serializer import XmlWriter
from repro.xmlgen.splice import FragmentCache, splice_streams
from repro.xmlgen.streams import ComparatorLayout, XmlDocumentCache
from repro.xmlgen.tagger import tag_streams
from repro.xmlql import compose, parse_xmlql


@dataclass
class StreamReport:
    """Timing and size of one executed stream.

    ``resilience`` is the stream's
    :class:`~repro.relational.faults.StreamAttemptStats` when the
    execution ran under a
    :class:`~repro.relational.resilience.Resilience` — attempts (0 when
    the result was replayed from the plan cache), retries, faults,
    backoff and fault latency in simulated ms on top of the fault-free
    ``server_ms``/``transfer_ms`` (which fault injection never changes),
    and under a replica pool the replica that served it, failovers and
    hedges — and None on the paper's path.
    """

    label: str
    rows: int
    server_ms: float
    transfer_ms: float
    sql: str = field(repr=False, default="")
    resilience: object = None


@dataclass
class PlanReport:
    """What happened when one plan was executed.

    ``query_ms`` / ``transfer_ms`` are the paper's figures — *sums* of the
    per-stream simulated times, independent of how the streams were
    dispatched, and identical with and without fault injection (retries
    re-submit until the clean execution succeeds).  ``elapsed_query_ms`` /
    ``elapsed_total_ms`` are the simulated elapsed times at the dispatch
    width asked for (``workers`` subqueries at once on the source),
    *including* the resilience overhead — per-stream backoff and wasted
    fault latency, plus the submissions burned by streams that were
    degraded away.  ``wall_s`` is the real (harness) execution time — the
    only non-deterministic field.

    ``resilience`` is None on the paper's path.  Under a
    :class:`~repro.relational.resilience.Resilience` it totals the
    streams' :class:`~repro.relational.faults.StreamAttemptStats`
    (``attempts`` — source submissions, cache replays excluded —
    ``retries``, ``faults``, ``backoff_ms``, ``fault_latency_ms``,
    ``failovers``, ``hedges``, ``hedge_wins``, ``hedge_wait_ms``: the same
    stats the metrics counters are recorded from, so the two reconcile),
    and its ``degraded_streams`` are the labels of streams that exhausted
    their retries and were re-planned into the finer streams found in
    ``streams``.

    ``obs`` is the :class:`~repro.obs.ObsOptions` observability session
    the execution ran under (None when tracing/metrics were off) — the
    *live* session object, so its trace and metrics snapshot are one
    attribute away from the report (``report.obs.profile()``,
    ``report.obs.metrics.snapshot()``); sessions reused across executions
    accumulate.
    """

    partition: Partition
    n_streams: int
    query_ms: float
    transfer_ms: float
    streams: list
    timed_out: bool = False
    #: Label of the stream whose subquery exceeded the budget (None unless
    #: ``timed_out``); ``streams`` then holds the reports of the streams
    #: completed before it, in spec order.
    timed_out_label: str = None
    workers: int = 1
    elapsed_query_ms: float = None
    elapsed_total_ms: float = None
    wall_s: float = None
    resilience: object = None
    obs: object = None

    @property
    def total_ms(self):
        """Query plus transfer time; explicitly ``nan`` for a timed-out
        report ("no time was reported") — check :attr:`timed_out` before
        aggregating."""
        if self.timed_out:
            return float("nan")
        return self.query_ms + self.transfer_ms


@dataclass
class MaterializedView:
    """The result of materializing a view: the document plus its report.

    For :meth:`XmlView.materialize_to` the document went to the caller's
    sink and ``xml`` is None.
    """

    xml: str
    report: PlanReport
    tagger: object = None


@dataclass
class _DispatchOutcome:
    """Internal result of the resilient dispatch loop: the plan's streams
    (cursors when ``lazy``) and what it took to open them."""

    specs: list
    streams: list
    stats: list
    start: float            # perf_counter() when the dispatch began
    lazy: bool = False
    degraded: tuple = ()
    # stats burned by degraded-away streams
    spent_stats: list = field(default_factory=list)
    timeout: object = None
    failure: object = None  # the undegradable TransientConnectionError
    span: object = None     # the dispatch trace span (None when tracing off)

    def close(self):
        """Release a lazy outcome's cursors; their charges stay frozen at
        the rows read so far.  An eager outcome holds nothing to release."""
        if self.lazy:
            for cursor in self.streams:
                cursor.close()


class ViewDefinition:
    """What a view is before any data is read (Secs. 3–4): the labeled
    ``tree``, its sort ``layout`` and decoders, and one generator (with its
    prepared specs) per ``(style, reduce, keep)``.  It holds no rows and
    nothing per session: the process shares it (:func:`view_definition`)."""

    def __init__(self, tree, schema):
        self.tree, self.schema = tree, schema
        self.layout = ComparatorLayout(tree)
        self._generators = {}

    def generator(self, style=PlanStyle.OUTER_JOIN, reduce=False, keep=()):
        key = (style, bool(reduce), tuple(keep))
        generator = self._generators.get(key)
        if generator is None:
            generator = self._generators.setdefault(key, SqlGenerator(
                self.tree, self.schema, style=style, reduce=reduce, keep=keep))
        return generator

    @cached_property
    def partitions(self):
        """The tree's 2^|E| partitions, made once: sweeps share them."""
        return tuple(enumerate_partitions(self.tree))


#: (RXL text, simplify_args, schema structure) -> ViewDefinition.
VIEW_DEFINITIONS = BoundedCache("view_definitions", max_entries=256)


def view_definition(rxl_text, schema, simplify_args=False):
    """Parse, validate and label ``rxl_text`` over ``schema``, once per
    process (keyed by the schema's structure: a schema is mutable)."""
    key = (rxl_text, bool(simplify_args), schema.structure())
    definition = VIEW_DEFINITIONS.get(key)
    if definition is None:
        tree = build_view_tree(parse_rxl(rxl_text), schema, simplify_args=simplify_args)
        label_view_tree(tree, schema)
        definition = ViewDefinition(tree, schema)
        VIEW_DEFINITIONS.store(key, definition)
    return definition


class XmlView:
    """One defined RXL view over a connection.

    What needs no data is the process's :class:`ViewDefinition`.  The
    view keeps what is its session's: per ``(style, reduce, keep)`` a
    planner over the definition's generator, asking the session's
    estimator; for one generation vector, finished documents, retired by
    the first read that sees the write; and per serialization and plan
    shape the last tagging, which the next one re-tags from
    (:meth:`_tag_cached`).
    """

    def __init__(self, silkroute, definition):
        self.silkroute = silkroute
        self.definition = definition
        self.tree = definition.tree
        self._planners = {}
        #: The incremental-maintenance caches, filled and retired by
        #: :meth:`_tag_cached` when a result cache is installed: the last
        #: tagging per serialization and plan shape, cut into top-level
        #: groups a splice can reuse, and finished (xml, tagger)
        #: documents (per plan only where the layout is not aligned).
        self.instance_cache = FragmentCache()
        self.document_cache = XmlDocumentCache()

    # -- plan space ---------------------------------------------------------------

    def unified_partition(self):
        return unified_partition(self.tree)

    def fully_partitioned(self):
        return fully_partitioned(self.tree)

    def greedy_plan(self, params=None, options=None, **overrides):
        """Run the Sec. 5 algorithm; returns a
        :class:`repro.core.greedy.GreedyPlan`.

        The planner (:meth:`_planner`) keeps its per-component oracle
        memo, so repeated planning — e.g. exploring several threshold
        settings via ``params`` — reuses every oracle answer; ``keep`` is
        Sec. 3.5's reduction-prohibition list.  It also remembers the
        returned plan *family*: adaptive degradation re-plans a failing
        subtree along its optional edges.
        """
        opts = resolve_options(options, overrides)
        return self._planner(opts).plan(params, obs_parts(opts.obs)[0])

    def _generator(self, opts):
        return self.definition.generator(opts.style, opts.reduce, opts.keep)

    def _planner(self, opts):
        """The view's planner for ``opts``' ``(style, reduce, keep)``; its
        ``generator`` is the one the view generates with under them."""
        key = (opts.style, bool(opts.reduce), tuple(opts.keep))
        planner = self._planners.get(key)
        if planner is None:
            planner = self._planners.setdefault(key, GreedyPlanner(
                self.tree, self.silkroute.schema, self.silkroute.estimator,
                generator=self._generator(opts),
            ))
        return planner

    # -- execution ------------------------------------------------------------------

    def explain(self, partition=None, use_with=False, options=None,
                **overrides):
        """The SQL queries a plan would send, without executing them.

        ``use_with`` phrases shared node queries as common table
        expressions (requires a target whose source description supports
        the ``with`` clause)."""
        specs = self.specs(
            partition, resolve_options(options, overrides, reduce=False)
        )
        if use_with:
            return [spec.sql_with for spec in specs]
        return [spec.sql for spec in specs]

    def specs(self, partition=None, options=None, **overrides):
        """The prepared stream specs (:class:`~repro.core.sqlgen.StreamSpec`)
        of a plan: what :meth:`explain` renders, every execution submits and
        :func:`~repro.relational.backends.cross_validate` checks on a real
        backend.  ``partition`` and the options are :meth:`materialize`'s
        (None: the greedy plan; ``reduce`` defaults to True).  Generated
        once per process, under the ``sqlgen`` span, and checked against
        the source description."""
        opts = resolve_options(options, overrides)
        partition = self._resolve_partition(partition, opts)
        tracer, _ = obs_parts(opts.obs)
        with tracer.span("sqlgen", style=opts.style.value) as sqlgen_span:
            specs = self._generator(opts).streams_for_partition(
                partition, tracer
            )
            sqlgen_span.set(streams=len(specs))
        self._check_source(specs)
        return specs

    def _dispatch(self, partition, specs, opts, lazy=False):
        """Open ``specs`` — executed streams, or unread cursors when
        ``lazy`` — through the resilience's executor when ``opts`` has
        one, degrading as they allow; return the complete
        :class:`_DispatchOutcome`, whose report :meth:`_outcome_report`
        builds once its charges are final.

        A plan that times out or fails undegradably raises instead
        (:class:`~repro.common.errors.TimeoutExceeded` /
        :class:`~repro.common.errors.TransientConnectionError`), its
        cursors closed and its partial report attached (``exc.report``).
        """
        executor = None
        if opts.resilience is not None:
            executor = opts.resilience.executor(self.silkroute.connection)
        outcome = self._dispatch_rounds(partition, specs, opts, executor,
                                        lazy)
        if outcome.timeout is None and outcome.failure is None:
            return outcome
        outcome.close()
        report = self._outcome_report(partition, outcome, opts)
        if outcome.failure is None:
            raise TimeoutExceeded(
                opts.budget_ms, float("nan"),
                stream_label=report.timed_out_label, report=report,
            )
        outcome.failure.report = report
        raise outcome.failure

    def _check_source(self, specs):
        source = self.silkroute.source
        if source is not None:
            for spec in specs:
                source.check_plan_features(
                    spec.uses_outer_join(), spec.uses_union()
                )

    def _dispatch_rounds(self, partition, specs, opts, executor, lazy):
        """Dispatch ``specs``, degrading failing subtrees until the plan
        completes, times out, or a stream fails undegradably (the
        outcome's ``timeout`` / ``failure``).  Every round shares
        ``executor`` (a fresh replica pool learns across rounds).  A
        cursor's fault is drawn when it opens, before the merge reads a
        row, so a lazy plan degrades exactly like an eager one."""
        start = time.perf_counter()
        connection = self.silkroute.connection
        # One plan's rounds (including degradation re-dispatches) must all
        # see the same data: a concurrent mutation raises
        # StaleGenerationError instead of splicing mixed-generation
        # streams into one document.
        pinned_generations = connection.database.table_generations()
        pending = list(zip(specs, partition_subtrees(self.tree, partition)))
        done_specs, done_streams, done_stats = [], [], []
        degraded, spent_stats = [], []
        tracer, _ = obs_parts(opts.obs)
        dispatch_span = tracer.span(
            "dispatch", streams=len(specs), workers=dispatch_width(opts),
        )
        if lazy:
            # The span brackets cursor *opening* only: the subqueries
            # execute inside the merge/tag spans that drain them.
            dispatch_span.set(streaming=True)

        def outcome(timeout=None, failure=None):
            return _DispatchOutcome(
                specs=done_specs, streams=done_streams, stats=done_stats,
                start=start, lazy=lazy, degraded=tuple(degraded),
                spent_stats=spent_stats, timeout=timeout, failure=failure,
                span=dispatch_span if tracer.enabled else None,
            )

        with dispatch_span:
            while True:
                result = execute_specs(
                    connection, [spec for spec, _ in pending],
                    executor=executor, expect_generations=pinned_generations,
                    lazy=lazy, options=opts,
                )
                completed = len(result.streams)
                done_specs.extend(spec for spec, _ in pending[:completed])
                done_streams.extend(result.streams)
                done_stats.extend(result.stats)
                if result.timeout is not None:
                    dispatch_span.set(
                        timed_out=True,
                        timed_out_label=result.timeout.stream_label,
                    )
                    return outcome(timeout=result.timeout)
                if result.failure is None:
                    if degraded:
                        dispatch_span.set(degraded=tuple(degraded))
                    return outcome()
                failure = result.failure
                failing_spec, failing_subtree = pending[result.failed_index]
                spent_stats.append(failure.stats)
                # A failure is drawn only under a Resilience; degradation
                # re-plans only under its retry policy.
                finer = (
                    self._finer_subtrees(failing_subtree, opts)
                    if opts.resilience.retry is not None else None
                )
                if finer is None:
                    dispatch_span.set(error=type(failure).__name__)
                    return outcome(failure=failure)
                degraded.append(failing_spec.label)
                generator = self._generator(opts)
                finer_specs = [
                    generator.stream_for_subtree(s, tracer) for s in finer
                ]
                dispatch_span.event(
                    "degrade", label=failing_spec.label,
                    finer_streams=len(finer_specs),
                )
                self._check_source(finer_specs)
                pending = (
                    list(zip(finer_specs, finer))
                    + pending[result.failed_index + 1:]
                )

    def _finer_subtrees(self, subtree, opts):
        """The failing subtree re-planned into finer streams, or None when
        no finer split exists (a single node).

        Degradation follows the plan *family* (Sec. 4/5: ``genPlan``
        returns a family of semantically equivalent partitions): if the
        cached greedy plan for this (style, reduce, keep) marks optional
        edges inside the subtree, those are cut first — the family's own
        finer member.  Otherwise (or when that cut is the whole edge set)
        every edge of the subtree is cut, the maximally partitioned
        fallback.  Each round strictly shrinks the failing component, so
        repeated degradation terminates at single-node streams.
        """
        if len(subtree.nodes) == 1:
            return None
        inner = {
            node.index for node in subtree.nodes if node is not subtree.root
        }
        family = self._planner(opts).family
        kept = set()
        if family is not None:
            cut = inner & set(family.optional)
            if cut and cut != inner:
                kept = inner - cut
        components, assigned = [], {}
        for node in subtree.nodes:  # index-sorted: parents before children
            if node is not subtree.root and node.index in kept:
                component = assigned[node.parent.index]
                component.append(node)
            else:
                component = [node]
                components.append(component)
            assigned[node.index] = component
        return [Subtree(self.tree, nodes[0], nodes) for nodes in components]

    def _outcome_report(self, partition, outcome, opts):
        """Build the :class:`PlanReport` for a dispatch outcome (complete,
        timed out, or the partial report of an unrecoverable failure) —
        for a lazy one, once its cursors are drained or closed."""
        wall_s = time.perf_counter() - outcome.start
        stats = outcome.stats
        if outcome.lazy:
            # A cursor's charges are final only now: it enters the
            # metrics here, once.
            metrics = obs_parts(opts.obs)[1]
            for cursor, st in zip(outcome.streams, stats):
                record_stream(metrics, cursor, st)
        reports = [
            StreamReport(
                label=spec.label, rows=stream.rows_read,
                server_ms=stream.server_ms, transfer_ms=stream.transfer_ms,
                sql=spec.sql, resilience=st,
            )
            for spec, stream, st in zip(
                outcome.specs, outcome.streams, stats
            )
        ]
        all_stats = stats + outcome.spent_stats
        resilience = None
        if opts.resilience is not None:
            resilience = opts.resilience.summary(all_stats, outcome.degraded)
        n_workers = dispatch_width(opts)
        if outcome.timeout is not None:
            nan = float("nan")
            return self._published_report(PlanReport(
                partition=partition,
                n_streams=len(outcome.specs) or len(outcome.streams),
                query_ms=nan,
                transfer_ms=nan,
                streams=reports,
                timed_out=True,
                timed_out_label=outcome.timeout.stream_label,
                workers=n_workers,
                elapsed_query_ms=nan,
                elapsed_total_ms=nan,
                wall_s=wall_s,
                resilience=resilience,
                obs=opts.obs,
            ))
        streams = outcome.streams
        # Resilience overhead (backoff, wasted fault latency, hedge wait —
        # including the submissions burned by degraded-away streams) is
        # charged to the simulated elapsed clock, never to the paper's
        # query/transfer sums.
        overhead = [0.0 if s is None else s.overhead_ms for s in all_stats]
        query_durations = [
            stream.server_ms + extra
            for stream, extra in zip(streams, overhead)
        ] + overhead[len(streams):]
        total_durations = [
            stream.server_ms + stream.transfer_ms + extra
            for stream, extra in zip(streams, overhead)
        ] + overhead[len(streams):]
        report = PlanReport(
            partition=partition,
            n_streams=len(outcome.specs),
            query_ms=sum(s.server_ms for s in streams),
            transfer_ms=sum(s.transfer_ms for s in streams),
            streams=reports,
            workers=n_workers,
            elapsed_query_ms=simulated_makespan(query_durations, n_workers),
            elapsed_total_ms=simulated_makespan(total_durations, n_workers),
            wall_s=wall_s,
            resilience=resilience,
            obs=opts.obs,
        )
        if outcome.span is not None:
            # The dispatch span learns its simulated makespan only now that
            # the report is assembled (Span.set_sim is legal after close).
            outcome.span.set_sim(report.elapsed_total_ms)
        return self._published_report(report)

    def _published_report(self, report):
        """Attach point-in-time cache gauges to the report's observability
        session, if any — keeping the metrics snapshot consistent with the
        cache the execution actually saw."""
        if report.obs is not None:
            metrics = obs_parts(report.obs)[1]
            cache = self.silkroute.connection.cache
            if cache is not None:
                cache.publish(metrics)
        return report

    def materialize(self, partition=None, root_tag="view", indent=None,
                    greedy_params=None, options=None, **overrides):
        """Materialize the view as XML.

        Without an explicit ``partition``, the greedy algorithm chooses the
        plan (its recommended member).  ``partition`` may also be the string
        ``"unified"`` or ``"fully-partitioned"``.  Execution knobs are the
        fields of :class:`~repro.core.options.ExecutionOptions`: bundle
        them in ``options=``, override single ones by keyword
        (``workers=4``), or both — the keyword wins.

        ``workers`` is the simulated dispatch width (see
        :class:`~repro.core.options.ExecutionOptions`): it sets the
        report's makespans, ``elapsed_query_ms`` / ``elapsed_total_ms``
        (the simulated makespan over ``workers`` workers, approaching
        ``max(server_ms)`` instead of ``sum(server_ms)``), never the
        document.  Under a ``resilience`` policy, transient stream
        failures are retried, failed over, hedged and degraded around: the
        produced XML is byte-identical to the fault-free run, and
        ``report.resilience`` records what that cost.

        On a budget overrun the raised
        :class:`~repro.common.errors.TimeoutExceeded` carries the partial
        :class:`PlanReport` (``exc.report``) and the label of the offending
        stream (``exc.stream_label``); an unrecoverable transient failure
        raises :class:`~repro.common.errors.TransientConnectionError` the
        same way.
        """
        return self._materialize(
            None, partition, root_tag, indent, greedy_params,
            resolve_options(options, overrides),
        )

    def materialize_to(self, sink, partition=None, root_tag="view",
                       indent=None, greedy_params=None, options=None,
                       **overrides):
        """Stream the view's XML into a file-like ``sink`` in bounded memory.

        The same pipeline as :meth:`materialize`, run lazily: each subquery
        is a cursor
        (:meth:`~repro.relational.engine.QueryEngine.execute_iter`: the
        same compiled plan, run keeping nothing and drained
        destructively), the walk over the sorted streams (or the merge of
        their decoded instances) tags them in document order and writes
        to ``sink`` as it goes — so neither
        the tuple streams nor the document are ever held as a whole, no
        cache grows, and the paper's constant-space tagger bound
        (Sec. 3.3) survives end to end.  What remains is each open
        cursor's undrained sort buffer.  The bytes written are identical
        to ``materialize(...).xml``.

        Returns a :class:`MaterializedView` whose ``xml`` is None and whose
        report's per-stream timings match the materializing path
        bit-identically (a cursor charges what ``execute`` charges, in the
        same order).  Failures are :meth:`materialize`'s: under a
        ``resilience`` policy each cursor is opened by its executor as an
        eager stream is submitted — routed, its fault drawn, retried,
        failed over and degraded around, its stats in the report — and
        what cannot be recovered raises with the partial report attached
        (``exc.report``).  On a budget overrun mid-drain, streams the merge
        had not yet finished appear with the rows/charges consumed so far.
        Either way every opened cursor is closed, releasing its row
        buffer.  What streaming lacks (hedging, ``workers``, the
        instance/document caches), and why, is stated once in
        :meth:`_materialize`.
        """
        return self._materialize(
            sink, partition, root_tag, indent, greedy_params,
            resolve_options(options, overrides),
        )

    def _materialize(self, sink, partition, root_tag, indent, greedy_params,
                     opts):
        """The one materialization pipeline: options → partition → SQL →
        dispatch → decode/merge/tag, into a string (``sink`` is None) or
        into ``sink``.

        Both dispatch the plan through :meth:`_dispatch`, so both retry,
        fail over and degrade alike: a fault is drawn when a stream is
        opened, before any row of it is read.  They differ in what a
        stream is.  Without a sink every stream is *executed* before
        tagging starts, which is what makes it possible to race a backup
        against one (hedging), to schedule them as if several ran at once
        (``workers``), and to keep decoded instances and the finished
        document for the next call (the instance/document caches).  With a
        sink every stream is a *lazy cursor* drained by the merge while
        the tagger is already writing: memory stays at the cursors'
        undrained sort buffers, and none of the above can exist — an
        unread cursor has no completion to race, the one walk (or merge)
        pulls the cursors in document order (so the report is the width-1
        one),
        and a cache entry would be the materialized stream the path exists
        to avoid.
        """
        streaming = sink is not None
        tracer, _ = obs_parts(opts.obs)
        with tracer.span(
            "materialize_to" if streaming else "materialize"
        ) as root_span:
            partition = self._resolve_partition(partition, opts, greedy_params)
            specs = self.specs(partition, opts)
            if streaming:
                # One walk drains the cursors, whatever ``workers`` says:
                # the report's width and makespans must say so too.
                opts = replace(opts, workers=None)
            outcome = self._dispatch(partition, specs, opts, lazy=streaming)
            specs = outcome.specs     # degradation may have refined them
            if not streaming:
                report = self._outcome_report(partition, outcome, opts)
                xml, tagger = self._tag_cached(
                    partition, specs, outcome.streams, outcome.degraded,
                    root_tag, indent, opts, root_span,
                )
                root_span.set(streams=len(specs), chars=len(xml))
                return MaterializedView(xml=xml, report=report, tagger=tagger)
            layout = self.definition.layout
            try:
                _, tagger = tag_streams(
                    self.tree, specs, outcome.streams, root_tag=root_tag,
                    writer=XmlWriter(sink=sink, indent=indent),
                    obs=opts.obs, layout=layout,
                    walk=layout.walk_facts(
                        specs, self.silkroute.connection.database),
                )
            except TimeoutExceeded as exc:
                exc.report = self._outcome_report(
                    partition, replace(outcome, timeout=exc), opts)
                raise
            finally:
                outcome.close()
            report = self._outcome_report(partition, outcome, opts)
            root_span.set(streams=len(specs))
        return MaterializedView(xml=None, report=report, tagger=tagger)

    def _tag_cached(self, partition, specs, streams, degraded, root_tag,
                    indent, opts, root_span):
        """Integrate eagerly dispatched ``streams`` into ``(xml, tagger)``
        through the view's incremental-maintenance caches.

        With a result cache installed, the finished document is kept per
        (serialization options, dependency generations of every table the
        view reads): on an aligned layout every partition produces the
        identical document, so any plan's re-materialization against
        unchanged generations serves it outright — execution still ran
        live, so the report's simulated timings stay per-plan faithful.
        On a layout that is not aligned the merge of unsorted runs decides
        the nesting, so the plan is in the key too.  Degraded output is
        never canonical and bypasses both caches.

        A miss there is how the view learns of a write, so there it
        retires every document keyed by a dead generation; then it tags
        through the top-level splice
        (:func:`~repro.xmlgen.splice.splice_streams`): against the last
        tagging of the same serialization and stream shapes, only the
        top-level groups whose rows changed are tagged again.  Each
        tagging replaces the last, so what the splice keeps needs no
        generation in its key.
        """
        doc_key = spliced = None
        layout = self.definition.layout
        database = self.silkroute.connection.database
        if self.silkroute.cache is not None and not degraded:
            query_engine = self.silkroute.connection.engine
            view_tables = frozenset().union(
                *(query_engine.tables_for(spec.plan) for spec in specs)
            )
            doc_key = (root_tag, indent, database.dependency_key(view_tables))
            if not layout.aligned:
                doc_key += (partition, opts.style, opts.reduce, opts.keep)
            document = self.document_cache.get(doc_key)
            if document is not None:
                root_span.set(document_cached=True)
                return document
            self.document_cache.discard_stale(database, at=2)
        walk = layout.walk_facts(specs, database)
        if doc_key is not None:
            decoders = tuple(layout.decoder(spec) for spec in specs)
            key = (root_tag, indent, decoders)
            spliced = splice_streams(
                layout, specs, streams, decoders, root_tag, indent,
                previous=self.instance_cache.peek(key), obs=opts.obs,
                walk=walk,
            )
        if spliced is None:
            document = tag_streams(
                self.tree, specs, streams, root_tag=root_tag, indent=indent,
                obs=opts.obs, layout=layout, walk=walk,
            )
        else:
            xml, tagger, tagging, reused, retagged = spliced
            self.instance_cache.store(key, tagging)
            self.instance_cache.count(reused, retagged)
            document = (xml, tagger)
        if doc_key is not None:
            self.document_cache.store(doc_key, document)
        return document

    def query(self, xmlql_text, root_tag="result", indent=None):
        """Run an XML-QL query against this view *virtually* (Sec. 7): the
        pattern is composed with the view definition into a view of its
        own (:func:`repro.xmlql.compose.compose`), usually one small SQL
        query, which is materialized like any other — this view never is.
        Returns that :class:`MaterializedView`."""
        rxl = compose(parse_xmlql(xmlql_text), self.tree)
        return self.silkroute.define_view(rxl).materialize(
            root_tag=root_tag, indent=indent)

    def _resolve_partition(self, partition, opts, greedy_params=None):
        if partition is None:
            return self.greedy_plan(greedy_params, options=opts).recommended()
        if isinstance(partition, str):
            named = {
                "unified": unified_partition,
                "fully-partitioned": fully_partitioned,
            }
            if partition not in named:
                raise PlanError(
                    f"unknown strategy {partition!r}; use 'unified' or "
                    "'fully-partitioned'"
                )
            return named[partition](self.tree)
        return partition


class SilkRoute:
    """The middle-ware system: a connection plus view definitions.

    Cache wiring is one flow, shared with ``Connection(cache=...)``: the
    cache lives in exactly one slot —
    the connection engine's
    :attr:`~repro.relational.engine.QueryEngine.cache` — and every entry
    point normalizes through
    :func:`~repro.relational.cache.resolve_cache`: ``True`` installs a
    fresh :class:`~repro.relational.cache.PlanResultCache`, an instance is
    shared as-is (repeated materializations and virtual queries replay
    previously executed plans with byte-identical results and simulated
    timings), ``False`` uninstalls, and ``None`` leaves the connection's
    current cache untouched.
    """

    def __init__(self, connection, source=None, estimator=None, cache=None):
        self.connection = connection
        self.schema = connection.database.schema
        self.source = source
        self.estimator = estimator or CostEstimator.shared(
            connection.database, connection.engine.cost_model
        )
        if cache is not None:
            self.cache = cache

    @property
    def cache(self):
        """The connection engine's result cache (or None)."""
        return self.connection.cache

    @cache.setter
    def cache(self, cache):
        self.connection.cache = resolve_cache(cache)

    def define_view(self, rxl_text, simplify_args=False):
        """A view of ``rxl_text`` over this connection, on the process's
        :class:`ViewDefinition` of it (:func:`view_definition`)."""
        return XmlView(self, view_definition(rxl_text, self.schema, simplify_args))
