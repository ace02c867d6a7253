"""Stream dispatch: submit a plan's subqueries and read back their streams.

This is the one place the middle-ware talks to its source(s).
:func:`open_spec` submits one spec on the routed connection,
:func:`run_spec_with_retry` is the one submit/retry/route loop around it
(a single connection and a replica pool run the same code), and
:func:`execute_specs` collects a plan's streams in spec order.

A partitioned plan is k independent SQL queries.  A middle-ware that
submits them concurrently sees the plan's *elapsed* query time approach
``max`` of the per-stream server times instead of their ``sum`` — the
tuple-delivery phase the paper's scaling argument (and the
XML-reconstruction literature after it) identifies as the dominant cost.

Here that concurrency lives on the *simulated* clock only.  The source is
an in-process, deterministic engine, so nothing on this path waits on
I/O and a thread could overlap nothing but simulated work:
:func:`execute_specs` runs the specs one after another, in spec order,
and ``workers`` — read by :func:`dispatch_width` — is the width the
simulated schedule is computed for: :func:`simulated_makespan`, what
reports expose as ``elapsed_query_ms`` / ``elapsed_total_ms``.  A hedged
backup races its primary the same way, by comparing simulated completions.
Per-stream
``server_ms`` / ``transfer_ms``, fault draws, routing and what a
dispatch that stops early leaves behind are therefore the same for
every width.
"""

import heapq
from dataclasses import dataclass, field

from repro.common.errors import (
    StaleGenerationError,
    TimeoutExceeded,
    TransientConnectionError,
    tag_context,
)
from repro.obs import obs_parts
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_SPAN
from repro.relational.connection import resolve_options
from repro.relational.faults import StreamAttemptStats
from repro.relational.replicas import resolve_resilience


def dispatch_width(opts):
    """The simulated dispatch width ``opts.workers`` asks for (None: 1) —
    how many subqueries the source is taken to run at once."""
    return max(opts.workers or 1, 1)


def simulated_makespan(durations_ms, workers):
    """Elapsed simulated time of ``durations_ms`` on ``workers`` workers.

    Jobs are assigned in submission order to the earliest-available worker
    (what a source serving ``workers`` connections does when job order is
    fixed), so with one worker this is the plain sum and with
    ``workers >= len(durations)`` it is the max."""
    durations_ms = list(durations_ms)
    if not durations_ms:
        return 0.0
    if workers is None or workers <= 1:
        return sum(durations_ms)
    free_at = [0.0] * min(workers, len(durations_ms))
    for duration in durations_ms:
        start = heapq.heappop(free_at)
        heapq.heappush(free_at, start + duration)
    return max(free_at)


@dataclass
class DispatchResult:
    """Outcome of one :func:`execute_specs` call.

    ``streams`` holds the completed
    :class:`~repro.relational.connection.TupleStream` results in spec
    order, ``stats`` the matching per-stream
    :class:`~repro.relational.faults.StreamAttemptStats`.  At most one of
    the failure slots is set:

    * ``timeout`` — the first spec (in spec order) whose subquery exceeded
      the budget; ``streams``/``stats`` stop before it,
    * ``failure`` — the first spec (in spec order) that exhausted its
      retries with a
      :class:`~repro.common.errors.TransientConnectionError`;
      ``failure.stats`` carries the attempts it burned and
      ``failed_index`` its position, so a caller can degrade that spec
      and re-dispatch the remainder.
    """

    streams: list
    timeout: object = None
    failure: object = None
    failed_index: int = None
    stats: list = field(default_factory=list)


def open_spec(connection, spec, opts, epoch=None, replica=None, attempt=1,
              faults=None, lazy=False, **span_attrs):
    """Submit ``spec`` on the routed connection — the one place a stream is
    opened: eagerly (a :class:`~repro.relational.connection.TupleStream`)
    by the retry loop and its hedge step, or lazily (``lazy=True``, a
    :class:`~repro.relational.connection.TupleCursor`) by the streaming
    materializer.

    Without an ``epoch`` the route is ``connection`` itself under
    ``faults`` (this submission's policy; None defers to ``opts`` and the
    connection), and nothing else happens.  With one, ``replica`` of the
    pool ``opts.replicas`` (default: the epoch's best-ranked) serves the
    submission under its own fault policy inside a ``replica:<i>`` span,
    and the outcome — failure, or success with its simulated completion
    (None for a lazy open, which has not run yet) — is buffered on the
    epoch for the pool's health.
    """
    if epoch is not None:
        if replica is None:
            replica = epoch.pick()
        connection = opts.replicas.connections[replica]
        faults = opts.replicas.policy_for(replica, opts.faults)
        span = obs_parts(opts.obs)[0].span(
            f"replica:{replica}", label=spec.label, attempt=attempt,
            **span_attrs,
        )
    else:
        span = NULL_SPAN
    submit = connection.execute_iter if lazy else connection.execute
    try:
        with span:
            stream = submit(
                spec.plan, compact_rows=spec.compact, label=spec.label,
                attempt=attempt, faults=faults, options=opts,
            )
    except TransientConnectionError as exc:
        if epoch is not None:
            epoch.observe(spec.label, attempt, replica, False, exc.latency_ms)
        raise
    if epoch is not None:
        # A lazy cursor has executed nothing yet: the pool learns that the
        # replica accepted it, not how long it takes.
        epoch.observe(
            spec.label, attempt, replica, True,
            None if lazy else _completion_ms(stream),
        )
    return stream


def run_spec_with_retry(connection, spec, epoch=None, options=None,
                        **overrides):
    """Execute one spec under the retry/backoff regime; return
    ``(stream, stats)`` — the one submit/retry loop, for a single
    connection and for a replica pool alike.

    Knobs come from ``options``/``overrides`` as everywhere (``budget_ms``,
    ``retry``, ``faults``, ``hedge_ms``, ``obs``, and what
    :meth:`Connection.execute
    <repro.relational.connection.Connection.execute>` reads); ``replicas``
    must already be a :class:`~repro.relational.replicas.ReplicaPool` or
    None, as :func:`execute_specs` resolves it.  ``epoch`` is the
    dispatch's state: the pool's pinned routing snapshot (when None, a
    single-spec epoch is opened and folded around the call).

    * **cache short-circuit** — a plan the engine would replay from its
      :class:`~repro.relational.cache.PlanResultCache` never contacts the
      (possibly faulty) source: no fault draw, no attempt recorded
      (``stats.from_cache``), which is why a warm cache makes a flaky
      source harmless.
    * **retry with simulated backoff** — each
      :class:`~repro.common.errors.TransientConnectionError` charges its
      wasted connection latency and the next backoff to the *simulated*
      clock (``stats.fault_latency_ms`` / ``stats.backoff_ms``); the
      stream is exhausted after ``retry.max_attempts`` submissions or when
      the next backoff would cross the deadline (``retry.deadline_ms``,
      defaulting to the plan's ``budget_ms``).

    A single connection is the degenerate route: one candidate, nothing
    to observe, ``stats.replica`` None.  A pool only changes *which
    connection next*:

    * **routing** — the first attempt goes to ``epoch``'s best-ranked
      replica;
    * **failover** — a failure moves the next attempt to the next-ranked
      replica *without* backoff (a different backend needs no cool-off);
      only when every candidate has failed the stream once does the round
      wrap, with the backoff charged and the tried set cleared — which on
      a single connection is every time.  Failover consumes retry
      attempts — without a ``retry`` policy the first fault is terminal
      either way;
    * **hedging** — see :func:`_hedge`.

    :class:`~repro.common.errors.TimeoutExceeded` is deterministic in
    simulated time and is never retried.  On exhaustion the raised
    ``TransientConnectionError`` carries ``stats`` (as ``exc.stats``) and
    the total ``attempts``.
    """
    opts = resolve_options(options, overrides)
    pool = opts.replicas
    if pool is not None and epoch is None:
        epoch = pool.begin_epoch()
        try:
            return run_spec_with_retry(connection, spec, epoch, opts)
        finally:
            pool.finish_epoch(epoch)
    tracer, _ = obs_parts(opts.obs)
    retry = opts.retry
    stats = StreamAttemptStats(label=spec.label)
    if epoch is None:
        first, installed = None, connection.faults
    else:
        first = stats.replica = epoch.pick()
        connection = pool.connections[first]
        installed = next((c.faults for c in pool.connections if c.faults), None)
    # The fault policy in play: it decides whether a replay is worth
    # checking for, and seeds the backoff jitter.
    policy = opts.faults if opts.faults is not None else installed
    if policy and connection.is_cached(spec.plan):
        stats.from_cache = True
        with tracer.span("cache", label=spec.label, replay=True):
            stream = open_spec(connection, spec, opts, faults=False)
        return stream, stats
    max_attempts = retry.max_attempts if retry is not None else 1
    deadline = opts.budget_ms
    if retry is not None and retry.deadline_ms is not None:
        deadline = retry.deadline_ms
    spent_ms = 0.0
    tried = set()
    current = first
    while True:
        stats.attempts += 1
        try:
            stream = open_spec(
                connection, spec, opts, epoch, current, stats.attempts
            )
            break
        except TransientConnectionError as exc:
            stats.faults += 1
            stats.fault_latency_ms += exc.latency_ms
            spent_ms += exc.latency_ms
            tracer.event(
                "fault", label=spec.label, attempt=stats.attempts,
                latency_ms=round(exc.latency_ms, 3),
                **({} if epoch is None else {"replica": current}),
            )
            if stats.attempts >= max_attempts:
                _exhaust(exc, stats)
            nxt = None
            if epoch is not None:
                tried.add(current)
                nxt = epoch.pick(exclude=tried)
            if nxt is None:
                # Every candidate failed this stream once this round:
                # wrap to the best-ranked one after a backoff.
                tried.clear()
                nxt = first
                backoff = retry.backoff_for(
                    spec.label, stats.faults,
                    seed=policy.seed if policy else 0,
                )
                if deadline is not None and spent_ms + backoff > deadline:
                    _exhaust(exc, stats)
                spent_ms += backoff
                stats.backoff_ms += backoff
                with tracer.span(
                    "retry", label=spec.label, failure=stats.faults,
                ) as retry_span:
                    retry_span.set_sim(backoff)
            if nxt != current:
                stats.failovers += 1
                tracer.event(
                    "failover", label=spec.label, from_replica=current,
                    to_replica=nxt, attempt=stats.attempts,
                )
            stats.retries += 1
            current = nxt
    if epoch is not None:
        stream, stats.replica = _hedge(
            spec, opts, epoch, stats, tried, current, stream
        )
    stats.fault_latency_ms += stream.fault_latency_ms
    return stream, stats


def _hedge(spec, opts, epoch, stats, tried, primary, stream):
    """The hedge step of a pooled stream; returns the winning ``(stream,
    replica)``.

    After a successful attempt whose simulated completion exceeds
    ``hedge_ms`` (the option, else the pool default), a backup executes on
    the next-ranked untried replica.  The backup's simulated completion is
    ``hedge_ms`` later than the primary's start; whichever finishes first
    in simulated time wins (ties favour the primary).  A winning backup
    charges ``hedge_wait_ms`` plus its own fault latency; the loser
    charges nothing — its window is subsumed by the winner's, so
    ``server_ms`` is never double-counted.
    """
    hedge_ms = opts.hedge_ms
    if hedge_ms is None:
        hedge_ms = opts.replicas.hedge_ms
    primary_cost = _completion_ms(stream)
    if hedge_ms is None or primary_cost <= hedge_ms:
        return stream, primary
    backup = epoch.pick(exclude=tried | {primary})
    if backup is None:
        return stream, primary
    stats.attempts += 1
    stats.hedges += 1
    with obs_parts(opts.obs)[0].span(
        "hedge", label=spec.label, primary=primary, backup=backup,
        after_ms=hedge_ms,
    ) as hedge_span:
        try:
            backup_stream = open_spec(
                None, spec, opts, epoch, backup, stats.attempts, hedged=True
            )
        except TransientConnectionError:
            # A failed backup is abandoned: the primary already
            # succeeded, so the fault costs nothing but the count.
            stats.faults += 1
            hedge_span.set(won=False, backup_failed=True)
            return stream, primary
        backup_cost = _completion_ms(backup_stream)
        if hedge_ms + backup_cost < primary_cost:
            stats.hedge_wins += 1
            stats.hedge_wait_ms += hedge_ms
            hedge_span.set(
                won=True,
                saved_ms=round(primary_cost - hedge_ms - backup_cost, 3),
            )
            return backup_stream, backup
        hedge_span.set(won=False)
        return stream, primary


def _exhaust(exc, stats):
    exc.attempts = stats.attempts
    exc.stats = stats
    raise exc


def execute_specs(connection, specs, epoch=None, expect_generations=None,
                  options=None, **overrides):
    """Execute every :class:`~repro.core.sqlgen.StreamSpec`'s plan; return
    a :class:`DispatchResult`.

    Execution knobs are the fields of
    :class:`~repro.core.options.ExecutionOptions`: bundle them in
    ``options=``, override single ones by keyword (``budget_ms=…``), or
    both — the keyword wins.  The bundle is resolved once here
    (``replicas`` to a live pool) and handed down as an object; the other
    arguments are this dispatch's state.

    ``streams`` is the list of :class:`~repro.relational.connection.TupleStream`
    results in spec order.  On a per-subquery budget overrun, ``streams``
    holds only the streams *preceding* the first timed-out spec and
    ``timeout`` is the raised
    :class:`~repro.common.errors.TimeoutExceeded`, annotated with
    ``stream_label``.  The specs run one after another in spec order, and
    a dispatch that stops early — timeout, terminal failure — never
    starts the later specs: no fault is drawn for them, no replica
    observes them, no span or cache entry is left behind.  ``workers`` is
    the *simulated* dispatch width (see the module docstring): it
    schedules the report's makespans, nothing here.

    ``retry`` (a :class:`~repro.relational.faults.RetryPolicy`) makes each
    stream resilient to
    :class:`~repro.common.errors.TransientConnectionError` injected by the
    connection's :class:`~repro.relational.faults.FaultPolicy` (or the
    ``faults`` override): failed submissions are retried with simulated
    backoff (see :func:`run_spec_with_retry`).  A stream that exhausts its
    retries is reported via ``result.failure``/``failed_index`` — first
    failing spec in spec order wins, exactly like timeouts — so the caller
    can degrade the plan.  Fault draws are keyed by ``(label, plan,
    attempt)``, not by execution order.

    A :class:`~repro.relational.replicas.ReplicaPool` (``replicas``)
    routes each spec to the best healthy replica, failing over and hedging
    (``hedge_ms``) inside the same loop.  Routing is frozen for the
    duration of the call: unless the caller pins an ``epoch`` (e.g. one
    per sweep), a fresh one is opened here and its health observations
    folded back when the call returns.

    With an observability session (``obs``), each stream is wrapped in a
    ``stream:<label>`` span under the caller's current one (the
    ``dispatch`` span).  Stream metrics are recorded once per completed
    stream (and once for a terminally-failed stream's burned attempts),
    from the same :class:`~repro.relational.faults.StreamAttemptStats`
    the plan report sums.

    ``expect_generations`` — a per-table generation map pinned by the
    caller (see :meth:`~repro.relational.database.Database.table_generations`)
    — guards multi-plan executions against concurrent mutations: when the
    live generations no longer match, the dispatch refuses with a
    :class:`~repro.common.errors.StaleGenerationError` naming the mutated
    tables instead of silently recomputing against mixed states.

    ``request`` — an optional
    :class:`~repro.core.options.RequestContext` — stamps its
    tenant/request id onto every error raised here (timeouts, transient
    failures, stale generations), so the serving layer can
    attribute failures without inspecting thread state.
    """
    opts = resolve_resilience(resolve_options(options, overrides), connection)
    pool = opts.replicas
    if expect_generations is not None:
        current = connection.database.table_generations()
        if current != expect_generations:
            changed = sorted(
                name
                for name in current.keys() | expect_generations.keys()
                if current.get(name) != expect_generations.get(name)
            )
            raise tag_context(StaleGenerationError(
                changed, pinned=expect_generations, current=current
            ), opts.request)
    tracer, metrics = obs_parts(opts.obs)
    result = DispatchResult(streams=[])
    own_epoch = pool is not None and epoch is None
    if own_epoch:
        epoch = pool.begin_epoch()
    try:
        for i, spec in enumerate(specs):
            try:
                with tracer.span("stream:" + spec.label) as span:
                    stream, stats = run_spec_with_retry(
                        connection, spec, epoch, opts
                    )
                    if tracer.enabled:
                        span.set(
                            rows=len(stream), attempts=stats.attempts,
                            retries=stats.retries,
                            from_cache=stats.from_cache,
                        )
                        if stats.replica is not None:
                            span.set(
                                replica=stats.replica, hedges=stats.hedges
                            )
                        span.set_sim(stream_cost(stream, stats))
            except (TimeoutExceeded, TransientConnectionError) as exc:
                # The first timed-out or terminally-failed spec stops the
                # dispatch; later specs are never started.
                _record_failure(
                    result, tag_context(exc, opts.request), spec, i, metrics
                )
                break
            result.streams.append(stream)
            result.stats.append(stats)
            record_stream(metrics, stream, stats)
        return result
    finally:
        if own_epoch:
            pool.finish_epoch(epoch)


def record_stream(metrics, stream, stats):
    """Enter one finished stream (a ``TupleStream``, or a drained or
    abandoned ``TupleCursor``) and its attempt ``stats`` into ``metrics``
    — the one place per-stream counters are recorded."""
    if not metrics.enabled:
        return
    stats.record(metrics)
    metrics.inc("streams.executed")
    metrics.inc("tuples.transferred", stream.rows_read)
    metrics.observe("stream.query_ms", stream.server_ms)
    metrics.observe("stream.transfer_ms", stream.transfer_ms)


def _completion_ms(stream):
    """One submission's simulated completion, as replica health and the
    hedge race see it."""
    return stream.fault_latency_ms + stream.server_ms + stream.transfer_ms


def stream_cost(stream, stats):
    """One stream's simulated elapsed cost: fault-free execution plus the
    resilience overhead charged to the elapsed clock — the duration the
    makespan schedules."""
    return stream.server_ms + stream.transfer_ms + stats.overhead_ms


def _record_failure(result, exc, spec, index, metrics=NULL_METRICS):
    if exc.stream_label is None:
        exc.stream_label = spec.label
    # Kept without its traceback: that holds execute_specs' frame, whose
    # ``result`` holds the exception — a cycle that would pin the failed
    # plan's kernel frames and batches until a full collection.  Callers
    # read the label and stats; none needs the frames.
    exc.__traceback__ = None
    if isinstance(exc, TimeoutExceeded):
        result.timeout = exc
    else:
        result.failure = exc
    result.failed_index = index
    # The attempts a terminally-failed stream burned enter the metrics here
    # — once — mirroring the report's ``spent_stats`` accounting.  A
    # timeout carries no stats (its interrupted attempt is not counted by
    # the report either).
    stats = getattr(exc, "stats", None)
    if stats is not None:
        stats.record(metrics)
