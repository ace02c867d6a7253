"""Exception hierarchy for the SilkRoute reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base type. Subclasses partition the failure domains: schema definition,
query construction, RXL parsing/scoping, planning, execution, and XML/DTD
validation.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A relational schema is malformed or violated (unknown table/column,
    duplicate names, key violations, foreign-key targets missing)."""


class QueryError(ReproError):
    """A relational-algebra or SQL query is malformed (unknown column
    references, union branches with incompatible schemas, bad predicates)."""


class RxlSyntaxError(ReproError):
    """The RXL source text could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class RxlScopeError(ReproError):
    """An RXL query references an undeclared tuple variable, an unknown
    table, or an unknown attribute."""


class PlanError(ReproError):
    """A view-tree partition or execution plan is invalid (edges outside the
    tree, a partition that is not a spanning forest, a plan that needs SQL
    features the target dialect does not support)."""


class ExecutionError(ReproError):
    """The simulated relational engine failed while executing a query.

    Every execution error can carry the identity of the client request it
    failed on behalf of: ``tenant`` / ``request_id`` default to None and
    are stamped by the serving front end (see :func:`tag_request`) on
    everything a request raises, so a :class:`TimeoutExceeded` or
    :class:`StaleGenerationError` surfacing from deep inside a dispatch
    still names the tenant and request that triggered it.
    """

    tenant = None
    request_id = None


def tag_request(exc, tenant=None, request_id=None):
    """Stamp request identity onto ``exc`` without overwriting an earlier
    stamp (the stamp closest to the raise site wins); returns ``exc``.

    Accepts any exception — attributes are set dynamically — so callers
    can tag errors that cross layer boundaries without type checks.
    """
    if tenant is not None and getattr(exc, "tenant", None) is None:
        exc.tenant = tenant
    if request_id is not None and getattr(exc, "request_id", None) is None:
        exc.request_id = request_id
    return exc


class TimeoutExceeded(ExecutionError):
    """A query's simulated running time exceeded the configured budget.

    Mirrors the paper's 5-minute per-subquery timeout in the Config-A
    exhaustive sweep: plans whose subqueries exceed the budget report no
    time at all.

    When the timeout is raised (or re-raised) on behalf of a whole plan,
    ``stream_label`` names the subquery stream that overran its budget and
    ``report`` carries the partial
    :class:`~repro.core.silkroute.PlanReport` — the streams completed
    before the offender — so callers can inspect which stream timed out
    without re-running the plan.
    """

    def __init__(self, budget_ms, elapsed_ms, stream_label=None, report=None):
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms
        self.stream_label = stream_label
        self.report = report
        super().__init__(
            f"simulated time {elapsed_ms:.0f}ms exceeded budget {budget_ms:.0f}ms"
        )


class StaleGenerationError(ExecutionError):
    """A mutation changed table generations in the middle of a pinned
    multi-plan execution.

    A sweep (or a resilient multi-round dispatch) pins the per-table
    generation vector when it starts: every plan's timings are only
    comparable if they saw the same data.  When a concurrent
    ``insert``/``update``/``delete`` bumps a pinned table mid-run, later
    plans would silently recompute against the new state and the recorded
    series would mix generations — so the read is refused instead.
    ``tables`` names the mutated tables; ``pinned``/``current`` are the
    per-table generation maps at pin time and at detection time.
    """

    def __init__(self, tables, pinned=None, current=None):
        self.tables = tuple(tables)
        self.pinned = dict(pinned) if pinned else None
        self.current = dict(current) if current else None
        detail = ", ".join(self.tables)
        super().__init__(
            f"table(s) {detail} mutated mid-sweep: results would mix "
            f"generations — re-run against the new state (or materialize "
            f"incrementally via the dependency-scoped caches)"
        )


class TransientConnectionError(ExecutionError):
    """A simulated transient failure of the client/server connection.

    Drawn from a :class:`~repro.relational.faults.FaultPolicy` by the
    resilient executor (:mod:`repro.relational.resilience`) before it
    submits a stream to its connection: the middle-ware does
    not control the RDBMS, so a stream execution can fail for reasons that
    have nothing to do with the plan — the connection dropped, the server
    shed load.  Transient means *retryable*: re-submitting the same query
    may succeed (unlike :class:`TimeoutExceeded`, which is deterministic in
    simulated time and never retried).

    ``stream_label`` names the stream whose execution failed and
    ``attempt`` is the 1-based submission attempt that drew the fault.
    When the error is re-raised on behalf of a whole plan — the stream
    exhausted its :class:`~repro.relational.faults.RetryPolicy` and no
    finer degradation split existed — ``attempts`` is the total number of
    submissions spent on the stream and ``report`` carries the partial
    :class:`~repro.core.silkroute.PlanReport` of the streams completed
    before it.  ``latency_ms`` is the simulated connection time wasted by
    the failing attempt (charged to retry deadlines, never to server
    time).
    """

    def __init__(self, stream_label=None, attempt=1, latency_ms=0.0,
                 attempts=None, report=None, reason="injected fault"):
        self.stream_label = stream_label
        self.attempt = attempt
        self.latency_ms = latency_ms
        self.attempts = attempts if attempts is not None else attempt
        self.report = report
        super().__init__(
            f"transient connection failure on stream "
            f"{stream_label or '?'} (attempt {attempt}: {reason})"
        )


class OverloadError(ExecutionError):
    """The serving layer refused a whole request to protect the system.

    Raised before any stream is planned, so shedding is load protection,
    not a failure of the shed work itself — the same request succeeds
    when resent later.  ``reason`` says who refused: ``"tenant"`` (the
    tenant's :class:`~repro.serve.tenants.AdmissionController`: its
    in-flight quota is full) or ``"draining"`` (the server is shutting
    down).  Nothing below a request sheds.
    """

    def __init__(self, message, reason):
        self.reason = reason
        super().__init__(message)


class WalError(ReproError):
    """The write-ahead log or a recovery from it failed.

    Raised for conditions that cannot be tolerated silently: an unreadable
    or checksum-corrupt snapshot, a snapshot whose catalog does not match
    the database it is being restored into, attaching one database to two
    logs, or nesting :meth:`~repro.relational.database.Database.transaction`
    groups.  A *torn or partially written trailing record* is explicitly
    **not** an error — recovery tolerates it by construction (the crash
    interrupted an uncommitted append) and reports the dropped suffix in
    :class:`~repro.relational.wal.RecoveryReport.torn_bytes`.
    """


class BackendMismatchError(ExecutionError):
    """A real backend's rows disagreed with the simulated oracle.

    Raised by :func:`~repro.relational.backends.cross_validate`: the
    simulated engine's rows are the oracle, and the backend's converted
    result must be the same bag of rows in a compatible order.  A disagreement means the dialect adaptation, the schema load, or
    the engine semantics diverged — never a transient condition — so it is
    raised loudly instead of silently preferring either side.

    ``backend`` names the backend, ``stream_label`` the stream (when known),
    and ``detail`` carries a short description of the first difference.
    """

    def __init__(self, message, backend=None, stream_label=None, sql=None,
                 detail=None):
        self.backend = backend
        self.stream_label = stream_label
        self.sql = sql
        self.detail = detail
        super().__init__(message)


class DtdError(ReproError):
    """A DTD could not be parsed."""


class ValidationError(ReproError):
    """An XML document does not conform to its DTD."""
