"""Concurrent stream dispatch: run a plan's subqueries on a thread pool.

A partitioned plan is k independent SQL queries.  The middle-ware does not
have to submit them one after another: dispatching them concurrently makes
the plan's *elapsed* query time approach ``max`` of the per-stream server
times instead of their ``sum`` — the tuple-delivery phase the paper's
scaling argument (and the XML-reconstruction literature after it)
identifies as the dominant cost.

:func:`execute_specs` preserves the sequential path's observable behaviour
exactly:

* **ordering** — streams are returned in spec (document) order regardless
  of completion order;
* **timeouts** — the first spec (in spec order) whose subquery exceeds the
  budget "wins": its earlier siblings are reported as completed, later
  futures are cancelled where possible and drained otherwise, and the
  outcome is indistinguishable from the sequential run that would have
  stopped at the same spec;
* **caching** — the engine's :class:`~repro.relational.cache.PlanResultCache`
  is thread-safe and single-flighted, so concurrent hits replay charge logs
  bit-identically and concurrent misses on the same plan insert once.

Because the simulated engine is deterministic, per-stream ``server_ms`` /
``transfer_ms`` are identical in both modes; only wall-clock changes.

:func:`simulated_makespan` is the simulated-time counterpart: the elapsed
time of k durations on N workers under the pool's submission-order
scheduling, which reports expose as ``elapsed_query_ms``.
"""

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.common.errors import (
    OverloadError,
    StaleGenerationError,
    TimeoutExceeded,
    TransientConnectionError,
    tag_request,
)
from repro.obs import obs_parts
from repro.obs.metrics import NULL_METRICS
from repro.relational.faults import StreamAttemptStats


def simulated_makespan(durations_ms, workers):
    """Elapsed simulated time of ``durations_ms`` on ``workers`` workers.

    Jobs are assigned in submission order to the earliest-available worker
    (exactly what a thread pool does when job order is fixed), so with one
    worker this is the plain sum and with ``workers >= len(durations)`` it
    is the max."""
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
    :class:`~repro.relational.faults.StreamAttemptStats`.  Exactly one of
    the failure slots may be set:

    * ``timeout`` — the first spec (in spec order) whose subquery exceeded
      the budget; ``streams``/``stats`` stop before it,
    * ``failure`` — the first spec (in spec order) that exhausted its
      retries with a
      :class:`~repro.common.errors.TransientConnectionError`;
      ``failure.stats`` carries the attempts it burned and
      ``failed_index`` its position, so a caller can degrade that spec
      and re-dispatch the remainder,
    * ``overload`` — the admission controller refused or shed part of the
      dispatch with an :class:`~repro.common.errors.OverloadError`;
      ``shed`` lists the labels of the streams that did not run
      (``streams``/``stats`` hold the ones completed before shedding).

    Unpacks as the historical ``streams, timeout = execute_specs(...)``
    pair.
    """

    streams: list
    timeout: object = None
    failure: object = None
    failed_index: int = None
    stats: list = field(default_factory=list)
    overload: object = None
    shed: tuple = ()

    def __iter__(self):
        return iter((self.streams, self.timeout))


def run_spec_with_retry(connection, spec, budget_ms=None, retry=None,
                        faults=None, breaker=None, obs=None, pool=None,
                        epoch=None, hedge_ms=None, engine=None,
                        batch_size=None, backend=None):
    """Execute one spec under the retry/backoff/breaker regime; return
    ``(stream, stats)``.

    With a ``pool`` (a :class:`~repro.relational.replicas.ReplicaPool`),
    execution is delegated to :meth:`ReplicaPool.run_spec
    <repro.relational.replicas.ReplicaPool.run_spec>` — same retry,
    deadline, and breaker semantics, plus replica routing, failover, and
    hedging (``hedge_ms``).  ``epoch`` pins the routing snapshot; when
    None, a single-spec epoch is opened and folded around the call.

    Otherwise, the loop around :meth:`Connection.execute
    <repro.relational.connection.Connection.execute>`:

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
    * **circuit breaking** — ``breaker`` counts exhausted plans by
      fingerprint and fails repeat offenders fast.

    :class:`~repro.common.errors.TimeoutExceeded` is deterministic in
    simulated time and is never retried.  On exhaustion the raised
    ``TransientConnectionError`` carries ``stats`` (as ``exc.stats``) and
    the total ``attempts``.
    """
    if pool is not None:
        own_epoch = epoch is None
        if own_epoch:
            epoch = pool.begin_epoch()
        try:
            return pool.run_spec(
                spec, epoch, budget_ms=budget_ms, retry=retry,
                breaker=breaker, faults=faults, obs=obs, hedge_ms=hedge_ms,
                engine=engine, batch_size=batch_size, backend=backend,
            )
        finally:
            if own_epoch:
                pool.finish_epoch(epoch)
    tracer, _ = obs_parts(obs)
    policy = faults if faults is not None else getattr(connection, "faults", None)
    stats = StreamAttemptStats(label=spec.label)
    fingerprint = spec.plan.fingerprint() if breaker is not None else None
    if breaker is not None and not breaker.allow(fingerprint):
        exc = TransientConnectionError(
            stream_label=spec.label, attempt=0, attempts=0,
            reason="circuit breaker open",
        )
        exc.stats = stats
        raise exc
    if policy and connection.is_cached(spec.plan):
        stats.from_cache = True
        with tracer.span("cache", label=spec.label, replay=True):
            stream = connection.execute(
                spec.plan, compact_rows=spec.compact, budget_ms=budget_ms,
                sql=spec.sql, label=spec.label, faults=False, obs=obs,
                engine=engine, batch_size=batch_size, backend=backend,
            )
        return stream, stats
    max_attempts = retry.max_attempts if retry is not None else 1
    deadline = budget_ms
    if retry is not None and retry.deadline_ms is not None:
        deadline = retry.deadline_ms
    seed = policy.seed if policy else 0
    spent_ms = 0.0
    while True:
        stats.attempts += 1
        try:
            stream = connection.execute(
                spec.plan, compact_rows=spec.compact, budget_ms=budget_ms,
                sql=spec.sql, label=spec.label, attempt=stats.attempts,
                faults=policy if policy is not None else False, obs=obs,
                engine=engine, batch_size=batch_size, backend=backend,
            )
            stats.fault_latency_ms += stream.fault_latency_ms
            if breaker is not None:
                breaker.record_success(fingerprint)
            return stream, stats
        except TransientConnectionError as exc:
            stats.faults += 1
            stats.fault_latency_ms += exc.latency_ms
            spent_ms += exc.latency_ms
            tracer.event(
                "fault", label=spec.label, attempt=stats.attempts,
                latency_ms=round(exc.latency_ms, 3),
            )
            exhausted = stats.attempts >= max_attempts
            backoff = 0.0
            if not exhausted:
                backoff = retry.backoff_for(
                    spec.label, stats.faults, seed=seed
                )
                if deadline is not None and spent_ms + backoff > deadline:
                    exhausted = True
            if exhausted:
                if breaker is not None:
                    breaker.record_failure(fingerprint)
                exc.attempts = stats.attempts
                exc.stats = stats
                raise
            spent_ms += backoff
            stats.backoff_ms += backoff
            stats.retries += 1
            with tracer.span(
                "retry", label=spec.label, failure=stats.faults,
            ) as retry_span:
                retry_span.set_sim(backoff)


def execute_specs(connection, specs, budget_ms=None, workers=None,
                  retry=None, faults=None, breaker=None, obs=None,
                  pool=None, hedge_ms=None, admission=None, epoch=None,
                  admission_elapsed_ms=0.0, engine=None, batch_size=None,
                  backend=None, expect_generations=None, request=None):
    """Execute every :class:`~repro.core.sqlgen.StreamSpec`'s plan; return
    a :class:`DispatchResult` (unpacks as the ``(streams, timeout)``
    pair).

    ``streams`` is the list of :class:`~repro.relational.connection.TupleStream`
    results in spec order.  On a per-subquery budget overrun, ``streams``
    holds only the streams *preceding* the first timed-out spec (spec
    order — identical to where a sequential run stops) and ``timeout`` is
    the raised :class:`~repro.common.errors.TimeoutExceeded`, annotated
    with ``stream_label``.  ``workers`` > 1 dispatches the subqueries on a
    thread pool; results, timings, and timeout behaviour are identical to
    the sequential path.

    ``retry`` (a :class:`~repro.relational.faults.RetryPolicy`) makes each
    stream resilient to
    :class:`~repro.common.errors.TransientConnectionError` injected by the
    connection's :class:`~repro.relational.faults.FaultPolicy` (or the
    ``faults`` override): failed submissions are retried with simulated
    backoff (see :func:`run_spec_with_retry`).  A stream that exhausts its
    retries is reported via ``result.failure``/``failed_index`` — first
    failing spec in spec order wins, exactly like timeouts — so the caller
    can degrade the plan.  Fault draws are keyed by ``(label, plan,
    attempt)``: sequential and concurrent dispatch of the same specs see
    identical faults, retries, and results.

    A :class:`~repro.relational.replicas.ReplicaPool` (``pool``) routes
    each spec to the best healthy replica, failing over and hedging
    (``hedge_ms``) per :meth:`ReplicaPool.run_spec
    <repro.relational.replicas.ReplicaPool.run_spec>`.  Routing is frozen
    for the duration of the call: unless the caller pins an ``epoch``
    (e.g. one per sweep), a fresh one is opened here and its health
    observations folded back when the call returns — so sequential and
    concurrent dispatch route identically.

    An :class:`~repro.relational.replicas.AdmissionController`
    (``admission``) protects the dispatch: a plan whose stream count
    overflows the slots + queue capacity is refused up front, and with a
    ``deadline_ms`` each stream's deterministic scheduled start (the same
    heap schedule as :func:`simulated_makespan`, offset by
    ``admission_elapsed_ms`` already spent by earlier rounds) is checked
    against the deadline — streams that would start too late are shed.
    Either way ``result.overload`` carries the
    :class:`~repro.common.errors.OverloadError` and ``result.shed`` the
    unexecuted labels; completed earlier streams are kept.  The caller is
    responsible for clamping ``workers`` to the admission policy.

    With an observability session (``obs``), each stream is wrapped in a
    ``stream:<label>`` span; the submitting thread's current span is
    captured *before* the fan-out and passed as the explicit span parent,
    so worker-thread spans still hang under the ``dispatch`` span that
    scheduled them.  Stream metrics are recorded once per completed stream
    (and once for a terminally-failed stream's burned attempts), from the
    same :class:`~repro.relational.faults.StreamAttemptStats` the plan
    report sums.

    ``expect_generations`` — a per-table generation map pinned by the
    caller (see :meth:`~repro.relational.database.Database.table_generations`)
    — guards multi-plan executions against concurrent mutations: when the
    live generations no longer match, the dispatch refuses with a
    :class:`~repro.common.errors.StaleGenerationError` naming the mutated
    tables instead of silently recomputing against mixed states.

    ``request`` — an optional
    :class:`~repro.core.options.RequestContext` — stamps its
    tenant/request id onto every error raised here (timeouts, transient
    failures, overloads, stale generations), including those raised
    inside worker threads, so the serving layer can attribute failures
    without inspecting thread state.
    """

    def tag(exc):
        if request is not None:
            tag_request(
                exc,
                getattr(request, "tenant", None),
                getattr(request, "request_id", None),
            )
        return exc

    if expect_generations is not None:
        current = connection.database.table_generations()
        if current != expect_generations:
            changed = sorted(
                name
                for name in current.keys() | expect_generations.keys()
                if current.get(name) != expect_generations.get(name)
            )
            raise tag(StaleGenerationError(
                changed, pinned=expect_generations, current=current
            ))
    tracer, metrics = obs_parts(obs)
    parent = tracer.current()

    def run(spec):
        with tracer.span("stream:" + spec.label, parent=parent) as span:
            stream, stats = run_spec_with_retry(
                connection, spec, budget_ms=budget_ms, retry=retry,
                faults=faults, breaker=breaker, obs=obs,
                pool=pool, epoch=epoch, hedge_ms=hedge_ms,
                engine=engine, batch_size=batch_size, backend=backend,
            )
            span.set(
                rows=len(stream), attempts=stats.attempts,
                retries=stats.retries, from_cache=stats.from_cache,
            )
            if stats.replica is not None:
                span.set(replica=stats.replica, hedges=stats.hedges)
            span.set_sim(_stream_cost(stream, stats))
            return stream, stats

    result = DispatchResult(streams=[])
    if admission is not None:
        overload = admission.admit_queue(specs)
        if overload is not None:
            result.overload = tag(overload)
            result.shed = overload.shed
            metrics.inc("dispatch.shed", len(overload.shed))
            tracer.event(
                "shed", reason="queue", streams=len(overload.shed),
            )
            return result
    deadline = admission.policy.deadline_ms if admission is not None else None
    free_at = None
    if deadline is not None and specs:
        free_at = [0.0] * min(max(workers or 1, 1), len(specs))

    def shed_deadline(index, start_ms):
        labels = tuple(spec.label for spec in specs[index:])
        overload = OverloadError(
            f"stream {specs[index].label} would start at simulated "
            f"{start_ms:.0f}ms, past the {deadline:.0f}ms admission "
            f"deadline",
            reason="deadline", shed=labels, stream_label=labels[0],
        )
        admission.note_shed(len(labels))
        result.overload = tag(overload)
        result.shed = labels
        metrics.inc("dispatch.shed", len(labels))
        tracer.event(
            "shed", reason="deadline", streams=len(labels), first=labels[0],
        )

    own_epoch = False
    if pool is not None and epoch is None:
        epoch = pool.begin_epoch()
        own_epoch = True
    try:
        if workers is not None and workers > 1 and len(specs) > 1:
            # Render SQL text up front: StreamSpec renders lazily and the
            # specs are shared across threads.
            for spec in specs:
                spec.sql
            with ThreadPoolExecutor(max_workers=workers) as executor:
                futures = [executor.submit(run, spec) for spec in specs]
                for i, future in enumerate(futures):
                    if free_at is not None:
                        start_ms = heapq.heappop(free_at)
                        if admission_elapsed_ms + start_ms >= deadline:
                            # Shed this and every later stream; work the
                            # threads already started is discarded (the
                            # simulated outcome matches the sequential
                            # path, which never starts them).
                            for later in futures[i:]:
                                later.cancel()
                            shed_deadline(i, admission_elapsed_ms + start_ms)
                            return result
                    try:
                        stream, stats = future.result()
                    except (TimeoutExceeded, TransientConnectionError) as exc:
                        # First terminally-failed spec in spec order wins;
                        # later futures are cancelled if not yet running
                        # and drained by the executor's shutdown otherwise.
                        for later in futures[i + 1:]:
                            later.cancel()
                        _record_failure(result, tag(exc), specs[i], i, metrics)
                        return result
                    if free_at is not None:
                        heapq.heappush(
                            free_at, start_ms + _stream_cost(stream, stats)
                        )
                    result.streams.append(stream)
                    result.stats.append(stats)
                    record_stream(metrics, stream, stats)
            return result
        for i, spec in enumerate(specs):
            if free_at is not None:
                start_ms = heapq.heappop(free_at)
                if admission_elapsed_ms + start_ms >= deadline:
                    shed_deadline(i, admission_elapsed_ms + start_ms)
                    return result
            try:
                stream, stats = run(spec)
            except (TimeoutExceeded, TransientConnectionError) as exc:
                _record_failure(result, tag(exc), spec, i, metrics)
                return result
            if free_at is not None:
                heapq.heappush(
                    free_at, start_ms + _stream_cost(stream, stats)
                )
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
    stats.record(metrics)
    metrics.inc("streams.executed")
    metrics.inc("tuples.transferred", stream.rows_read)
    metrics.observe("stream.query_ms", stream.server_ms)
    metrics.observe("stream.transfer_ms", stream.transfer_ms)
    if getattr(stream, "backend_wall_ms", 0.0):
        metrics.observe("stream.backend_wall_ms", stream.backend_wall_ms)


def _stream_cost(stream, stats):
    """One stream's simulated elapsed cost: fault-free execution plus the
    resilience overhead charged to the elapsed clock (backoff, wasted
    fault latency, hedge wait) — the duration the makespan schedules."""
    return (
        stream.server_ms + stream.transfer_ms + stats.backoff_ms
        + stats.fault_latency_ms + stats.hedge_wait_ms
    )


def _record_failure(result, exc, spec, index, metrics=NULL_METRICS):
    if exc.stream_label is None:
        exc.stream_label = spec.label
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
