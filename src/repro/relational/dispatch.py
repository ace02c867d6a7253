"""Stream dispatch: submit a plan's subqueries and read back their streams.

This is the one place the middle-ware talks to its source: the transfer
step after SQL generation.  :func:`submit` opens one spec on a
connection, and :func:`execute_specs` opens a plan's streams in spec
order — executed lists, or the cursors a streaming export drains — from
the connection itself on the paper's path, or through the executor of
the execution's
:class:`~repro.relational.resilience.Resilience`, which this module
calls but does not know.

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
reports expose as ``elapsed_query_ms`` / ``elapsed_total_ms``.
Per-stream ``server_ms`` / ``transfer_ms``, fault draws, routing and
what a dispatch that stops early leaves behind are therefore the same
for every width.
"""

import heapq
from dataclasses import dataclass, field
from functools import partial

from repro.common.errors import (
    StaleGenerationError,
    TimeoutExceeded,
    TransientConnectionError,
)
from repro.obs import obs_parts
from repro.obs.metrics import NULL_METRICS
from repro.relational.connection import resolve_options


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

    ``streams`` holds the opened streams in spec order (executed
    :class:`~repro.relational.connection.TupleStream` lists, or cursors),
    ``stats`` the matching per-stream
    :class:`~repro.relational.faults.StreamAttemptStats` (None each
    without resilience).  At most one of
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


def submit(connection, spec, opts, lazy=False):
    """Open ``spec`` on ``connection`` — a
    :class:`~repro.relational.connection.TupleStream`, or a
    :class:`~repro.relational.connection.TupleCursor` when ``lazy`` — and
    return ``(stream, None)``: the paper's submission, shaped as the
    resilient executor's ``run``, whose attempt stats stand where the
    None does.  No ``sql=`` is passed: a dispatched stream's ``.sql`` is
    None, and reports take ``spec.sql``."""
    run = connection.execute_iter if lazy else connection.execute
    return run(spec.plan, compact_rows=spec.compact, label=spec.label,
               options=opts), None


def execute_specs(connection, specs, executor=None, expect_generations=None,
                  lazy=False, options=None, **overrides):
    """Open every :class:`~repro.core.sqlgen.StreamSpec`'s plan; return
    a :class:`DispatchResult`.

    Execution knobs are the fields of
    :class:`~repro.core.options.ExecutionOptions`: bundle them in
    ``options=``, override single ones by keyword (``budget_ms=…``), or
    both — the keyword wins.  The other arguments are this dispatch's
    state.

    ``streams`` holds the results in spec order: executed
    :class:`~repro.relational.connection.TupleStream` lists, or with
    ``lazy`` unread :class:`~repro.relational.connection.TupleCursor`
    objects, which the caller drains and closes.  On a per-subquery budget
    overrun (for a cursor, only its ``startup`` charge can overrun here),
    ``streams`` holds only the streams *preceding* the first timed-out
    spec and ``timeout`` is the raised
    :class:`~repro.common.errors.TimeoutExceeded`, annotated with
    ``stream_label``.  The specs run one after another in spec order, and
    a dispatch that stops early never starts the later specs: no fault is
    drawn for them, no replica observes them, no span or cache entry is
    left behind.  ``workers`` is the *simulated* dispatch width (see the
    module docstring): it schedules the report's makespans, nothing here.

    Without ``opts.resilience`` each spec goes to ``connection`` as it is
    (:func:`submit`), and ``stats`` holds None per stream.  With one, each
    goes to its executor
    (:class:`~repro.relational.resilience.ResilientExecutor`, built here
    unless the caller shares one as ``executor``), which routes, draws
    faults, retries, fails over and — eager streams only — hedges, and
    returns the stream's
    :class:`~repro.relational.faults.StreamAttemptStats`.  A fault is
    drawn when a stream is opened, so a cursor is retried like a list: it
    has delivered no row yet.  A stream that exhausts its retries is
    reported via ``result.failure`` / ``failed_index`` — first failing
    spec in spec order wins, exactly like timeouts — so the caller can
    degrade the plan.  A pool's routing is frozen for the call: unless
    the executor already holds an epoch (a sweep's), one is opened here
    and folded back when the call returns.

    With an observability session (``obs``), each stream is wrapped in a
    ``stream:<label>`` span under the caller's current one (the
    ``dispatch`` span).  An executed stream's metrics are recorded here,
    once per completed stream (and once for a terminally-failed stream's
    burned attempts), from the same stats the plan report sums; a
    cursor's charges are final only once it is drained or closed, so
    its rows, simulated cost and metrics are left to the caller
    (:func:`record_stream`).

    ``expect_generations`` — a per-table generation map pinned by the
    caller (see :meth:`~repro.relational.database.Database.table_generations`)
    — guards multi-plan executions against concurrent mutations: when the
    live generations no longer match, the dispatch refuses with a
    :class:`~repro.common.errors.StaleGenerationError` naming the mutated
    tables instead of silently recomputing against mixed states.
    """
    opts = resolve_options(options, overrides)
    check_generations(connection.database, expect_generations)
    if executor is None and opts.resilience is not None:
        executor = opts.resilience.executor(connection)
    if executor is None:
        return _run_specs(partial(submit, connection), specs, opts, lazy)
    with executor.routing():
        return _run_specs(executor.run, specs, opts, lazy)


def check_generations(database, pinned):
    """Raise :class:`~repro.common.errors.StaleGenerationError`, naming
    the written tables, when ``database``'s per-table generations are no
    longer the ``pinned`` ones (None pins nothing)."""
    if pinned is None:
        return
    current = database.table_generations()
    if current != pinned:
        changed = sorted(
            name for name in current.keys() | pinned.keys()
            if current.get(name) != pinned.get(name)
        )
        raise StaleGenerationError(changed, pinned=pinned, current=current)


def _run_specs(run, specs, opts, lazy):
    """The dispatch loop: ``run(spec, opts, lazy)`` per spec, in spec
    order, until one times out or fails for good."""
    tracer, metrics = obs_parts(opts.obs)
    result = DispatchResult(streams=[])
    for i, spec in enumerate(specs):
        try:
            with tracer.span("stream:" + spec.label) as span:
                stream, stats = run(spec, opts, lazy)
                if tracer.enabled:
                    if not lazy:
                        span.set(rows=len(stream))
                    if stats is not None:
                        span.set(
                            attempts=stats.attempts, retries=stats.retries,
                            from_cache=stats.from_cache,
                        )
                        if stats.replica is not None:
                            span.set(
                                replica=stats.replica, hedges=stats.hedges
                            )
                    if not lazy:
                        span.set_sim(stream_cost(stream, stats))
        except (TimeoutExceeded, TransientConnectionError) as exc:
            # The first timed-out or terminally-failed spec stops the
            # dispatch; later specs are never started.
            _record_failure(result, exc, spec, i, metrics)
            break
        result.streams.append(stream)
        result.stats.append(stats)
        if not lazy:
            record_stream(metrics, stream, stats)
    return result


def record_stream(metrics, stream, stats):
    """Enter one finished stream (a ``TupleStream``, or a drained or
    abandoned ``TupleCursor``) and its attempt ``stats`` (None on the
    paper's path) into ``metrics`` — the one place per-stream counters
    are recorded."""
    if not metrics.enabled:
        return
    if stats is not None:
        stats.record(metrics)
    metrics.inc("streams.executed")
    metrics.inc("tuples.transferred", stream.rows_read)
    metrics.observe("stream.query_ms", stream.server_ms)
    metrics.observe("stream.transfer_ms", stream.transfer_ms)


def stream_cost(stream, stats):
    """One stream's simulated elapsed cost: fault-free execution plus the
    resilience overhead charged to the elapsed clock (``stats``, None on
    the paper's path) — the duration the makespan schedules."""
    cost = stream.server_ms + stream.transfer_ms
    return cost if stats is None else cost + stats.overhead_ms


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
