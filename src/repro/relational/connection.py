"""Simulated client/server connection: tuple streams and transfer timing.

The paper measures two times per plan (Sec. 4):

* **query-only time** — until the first tuple is read from a stream; since
  every generated query ends in a blocking ORDER BY, this equals server
  execution time (the paper confirms: "The time to first tuple is
  comparable to the time to count all tuples in the result on the server"),
* **total time** — query time plus binding/transferring every tuple to the
  client over JDBC.

The transfer model charges per row and per field, with NULL fields costing a
small marker.  It also implements the paper's observed *"anomalous caching
behavior in JDBC"* for wide rows: rows whose effective width exceeds a
threshold pay a super-linear penalty.  For union-shaped results the driver
can use the compact per-branch row format (most columns are NULL and skipped
cheaply), so their effective width is the non-null field count; rows
produced by a wide outer join bind every declared column.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add
from types import NoneType

from repro.common.errors import PlanError, TimeoutExceeded
from repro.obs import obs_parts
from repro.relational.cache import RowCount, resolve_cache
from repro.relational.codegen import Source, compiled
from repro.relational.engine import QueryEngine
from repro.relational.pipeline import column_facts
from repro.relational.types import width_function


def resolve_options(options, overrides):
    """:func:`repro.core.options.resolve_options` for this package, whose
    calls hand the resolved bundle down untouched (the first branch).  The
    import waits for the first call that needs it because ``repro.core``
    imports this package while it loads."""
    if options is not None and not overrides:
        return options
    from repro.core import options as core_options

    return core_options.resolve_options(options, overrides)


@dataclass(frozen=True)
class TransferModel:
    """Client-side binding/transfer coefficients, in simulated ms."""

    row_ms: float = 0.25
    field_ms: float = 0.02
    byte_ms: float = 0.004
    null_field_ms: float = 0.012
    wide_threshold: int = 10      # columns before the wide-row penalty starts
    wide_row_factor: float = 0.25  # penalty per column beyond the threshold


@dataclass(frozen=True)
class SourceDescription:
    """What the target RDBMS supports (Sec. 3.4: "SilkRoute chooses
    permissible plans based on the source description of the underlying
    RDBMS") plus which constraints may be assumed for labeling."""

    supports_left_outer_join: bool = True
    supports_union: bool = True
    supports_with: bool = False
    enforces_foreign_keys: bool = True

    def check_plan_features(self, uses_outer_join, uses_union):
        """Raise :class:`PlanError` if a plan needs unsupported features."""
        if uses_outer_join and not self.supports_left_outer_join:
            raise PlanError("target RDBMS does not support LEFT OUTER JOIN")
        if uses_union and not self.supports_union:
            raise PlanError("target RDBMS does not support UNION")


class TupleStream:
    """One executed query's sorted result stream with its simulated timings.

    Replayed from a sweep's :class:`~repro.relational.cache.PlanCostCache`,
    ``rows`` is a :class:`~repro.relational.cache.RowCount`: the stream
    has its timings and its length, and iterating it is an error.
    """

    def __init__(self, columns, rows, server_ms, transfer_ms, sql=None, label=None):
        self.columns = columns
        self.rows = rows
        self.server_ms = server_ms
        self.transfer_ms = transfer_ms
        self.sql = sql
        self.label = label

    @property
    def rows_read(self):
        """Rows delivered to the client — all of them; the name is shared
        with :class:`TupleCursor`, where it counts the rows read so far."""
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class TupleCursor:
    """A *streaming* query result: rows are produced on demand.

    The iterator twin of :class:`TupleStream` — ``Connection.execute_iter``
    returns one instead of a materialized stream.  The first ``next()``
    evaluates the plan on the server side; rows then cross the client
    boundary one at a time, each releasing its slot in the server's
    buffer and paying its transfer cost: the per-row form of the generated
    charge (:func:`transfer_charge_source`), added up in row order — the
    expression and the float accumulation order the materializing path
    folds over the whole result — so after exhaustion ``transfer_ms`` and
    ``server_ms`` match ``TupleStream``'s, both bit-identically.

    ``server_ms`` / ``transfer_ms`` / ``rows_read`` read the charges
    accumulated *so far*; they are final once :attr:`exhausted` is True.
    A :class:`~repro.common.errors.TimeoutExceeded` budget overrun
    surfaces from the consuming ``next()`` call (only ``startup`` is
    charged when the cursor is opened).

    A cursor is a context manager: abandoning one (an export that failed
    or ran out of budget) should
    :meth:`close` it so the engine's row buffer is dropped promptly
    instead of lingering until garbage collection.
    """

    def __init__(self, iter_result, row_cost_fn, sql=None, label=None):
        self.columns = iter_result.columns
        self.sql = sql
        self.label = label
        self.transfer_ms = 0.0
        self.rows_read = 0
        self.closed = False
        self._iter_result = iter_result

        def rows():
            try:
                for row in iter_result:
                    self.transfer_ms += row_cost_fn(row)
                    self.rows_read += 1
                    yield row
            except TimeoutExceeded as exc:
                if exc.stream_label is None:
                    exc.stream_label = self.label
                raise
        self._rows = rows()

    @property
    def server_ms(self):
        return self._iter_result.server_ms

    @property
    def exhausted(self):
        return self._iter_result.exhausted

    def __iter__(self):
        return self._rows

    def close(self):
        """Release the cursor: close the client-side row generator and the
        engine's, dropping the undrained rows (and, on the ``"tuple"``
        interpreter, every pipeline-breaker buffer).  Charges stay frozen
        at the rows consumed so far.  Idempotent; iterating a closed
        cursor yields nothing further."""
        if self.closed:
            return
        self.closed = True
        self._rows.close()
        self._iter_result.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class Connection:
    """A client connection to the simulated RDBMS.

    ``cache`` optionally installs a
    :class:`~repro.relational.cache.PlanResultCache` on the engine: plans
    already executed against the current database generation are replayed
    (byte-identical results and simulated timings) instead of re-evaluated.
    The cache always lives on the engine; this parameter and the
    :attr:`cache` property (like ``SilkRoute(cache=...)``) are views of
    the same slot, normalized by
    :func:`~repro.relational.cache.resolve_cache` — pass ``True`` for a
    fresh cache or an instance to share one.  A cached entry also keeps
    the transfer cost this connection summed over its rows, under the
    connection's ``transfer_model``; without a cache every execution
    walks its rows.

    A connection never fails: fault injection, retry and replicas wrap
    it from outside (:mod:`repro.relational.resilience`).

    ``engine`` is the :class:`~repro.relational.engine.QueryEngine` mode
    every plan of this connection runs in, fixed here: ``"batch"`` (the
    production kernels) or ``"tuple"`` (the reference interpreter the
    identity tests, the perf harness and the crash soak build to compare
    against — same rows, same simulated timings).
    """

    def __init__(self, database, cost_model, transfer_model=None, cache=None,
                 engine="batch"):
        self.database = database
        self.engine = QueryEngine(database, cost_model,
                                  cache=resolve_cache(cache), engine=engine)
        self.transfer_model = transfer_model or TransferModel()

    @property
    def cache(self):
        """The engine's :class:`PlanResultCache` (or None) — the single
        slot every cache-wiring path writes to."""
        return self.engine.cache

    @cache.setter
    def cache(self, cache):
        self.engine.cache = resolve_cache(cache)

    def is_cached(self, plan):
        """True when the engine would replay ``plan`` from its result
        cache without re-evaluating — i.e. executing it does not contact
        the source (so no fault is drawn for it)."""
        return self.engine.cached_complete(plan)

    def _run(self, run, plan, opts):
        """What :meth:`execute` and :meth:`execute_iter` share: the engine
        call ``run`` (its ``execute`` or ``execute_iter``) under the
        bundle's budget and metrics."""
        return run(
            plan, budget_ms=opts.budget_ms,
            metrics=obs_parts(opts.obs)[1] if opts.obs is not None else None,
        )

    def execute(self, plan, compact_rows=False, sql=None, label=None,
                options=None, **overrides):
        """Execute ``plan`` and return a :class:`TupleStream`.

        ``compact_rows`` marks union-shaped results whose driver-side row
        format skips NULL columns (see module docstring); ``sql``/``label``
        name the stream.  Execution knobs are the fields of
        :class:`~repro.core.options.ExecutionOptions` this layer reads —
        bundle them in ``options=`` or override single ones by keyword, as
        everywhere: ``budget_ms`` bounds *server* time (the paper's
        per-subquery timeout); ``obs`` (an :class:`~repro.obs.ObsOptions`
        session) forwards the metrics registry to the engine's plan-cache
        hit/miss counters.
        """
        opts = resolve_options(options, overrides)
        result = self._run(self.engine.execute, plan, opts)
        # Summed once per plan-cache entry and kept on it (see
        # ``CacheEntry.transfer_sums``); a racing thread stores the same
        # float twice.
        sums = result.transfer_sums
        key = (self.transfer_model, compact_rows)
        transfer_ms = sums.get(key)
        if transfer_ms is None:
            rows = result.rows
            if isinstance(rows, RowCount):
                # A cost-only entry summed under another transfer model
                # (a replica's) or row format: re-evaluate, never guess.
                rows = self.engine.rows(plan, obs_parts(opts.obs)[1])
            transfer_ms = sums[key] = self._transfer_cost(
                result.columns, rows, compact_rows, self._nullable(plan)
            )
        return TupleStream(
            columns=result.columns,
            rows=result.rows,
            server_ms=result.server_ms,
            transfer_ms=transfer_ms,
            sql=sql,
            label=label,
        )

    def execute_iter(self, plan, compact_rows=False, sql=None, label=None,
                     options=None, **overrides):
        """Execute ``plan`` streaming; return a :class:`TupleCursor`.
        Arguments as on :meth:`execute`.

        The engine opens a cursor
        (:meth:`~repro.relational.engine.QueryEngine.execute_iter`) in
        the connection's mode, the batch kernels by default: the plan is
        evaluated on first ``next()`` keeping no intermediate and caching
        nothing, and the final ORDER BY's buffer is drained destructively
        — memory is bounded by that buffer plus the largest single
        operator step, and the client side never holds the rows as a
        whole.  ``startup`` is charged when the cursor is opened: a
        budget below ``startup_ms`` raises from this call (labelled here
        — no cursor exists yet), any later overrun from the consuming
        ``next()``.  The result cache is neither read nor filled (filling
        it would mean keeping the result): a plan streamed twice is
        evaluated twice, to the same rows and charges.
        """
        opts = resolve_options(options, overrides)
        try:
            iter_result = self._run(self.engine.execute_iter, plan, opts)
        except TimeoutExceeded as exc:
            # The startup charge alone blew the budget (in either engine
            # mode) — the cursor was never built, so label the error here.
            if exc.stream_label is None:
                exc.stream_label = label
            raise
        return TupleCursor(
            iter_result,
            self._row_cost_fn(iter_result.columns, compact_rows,
                              self._nullable(plan)),
            sql=sql,
            label=label,
        )

    def _nullable(self, plan):
        """Per column of ``plan``'s result, whether it may hold a NULL:
        the plan pads it (:func:`~repro.relational.pipeline.column_facts`)
        or a table its values come from holds one
        (:meth:`Table.value_types
        <repro.relational.table.Table.value_types>`) — the facts the root
        sort reads, never the rows."""
        table = self.database.table
        return tuple(
            NoneType in types or any(
                NoneType in table(name).value_types(column)
                for name, column in sources)
            for types, sources, _ in column_facts(plan))

    def _row_cost_fn(self, columns, compact_rows, nullable=None):
        """The per-row transfer charge, ``row -> ms``: the generated form
        :class:`TupleCursor` adds row by row (see
        :func:`transfer_charge_source`).  ``nullable`` says per column
        whether it may hold a NULL (None: every column may)."""
        return self._charge(columns, compact_rows, nullable, "row")

    def _transfer_cost(self, columns, rows, compact_rows, nullable=None):
        """The transfer charge summed over ``rows``, left to right from
        0.0 — what the cursor accumulates, to the bit."""
        return self._charge(columns, compact_rows, nullable, "rows")(rows)

    def _charge(self, columns, compact_rows, nullable, form):
        # A result shape recurs across plans and connections, and
        # compiling costs more than charging a small result; a form is
        # compiled when first asked for (a sweep never needs "row").
        sql_types = tuple(col.sql_type for col in columns)
        key = (self.transfer_model, sql_types,
               (True,) * len(sql_types) if nullable is None else nullable,
               compact_rows, form)
        return compiled(("transfer", *key),
                        lambda: transfer_charge_source(*key))


def transfer_charge_source(model, sql_types, nullable, compact_rows, form):
    """The per-row transfer formula of ``model`` over columns of
    ``sql_types`` as generated source, unrolled per column:
    ``R + (N if r[0] is None else A_INTEGER) + (F + len(r[1]) * B) ...``,
    times ``W`` when the row is wide (each capital a constant of the
    source).  A column ``nullable`` says holds no NULL is charged without
    the test, and a leading run of such fixed-width columns is added into
    ``R`` here, by the same additions in the same order.  The additions
    run left to right in the order of the per-field formula, so every
    float is the same.  ``form`` ``"row"`` is ``charge(r) -> ms``;
    ``"rows"`` sums it over a list of rows by a left fold from 0.0
    (``reduce``, not ``sum``, which compensates on Python 3.12).
    """
    src = Source()
    null = src.const(model.null_field_ms, "N")
    fixed = {}
    row_ms, terms = model.row_ms, []
    for i, (sql_type, may_be_null) in enumerate(zip(sql_types, nullable)):
        if width_function(sql_type) is len:
            value = (f"{src.const(model.field_ms, 'F')} + "
                     f"{src.const(len, 'LEN')}(r[{i}]) * "
                     f"{src.const(model.byte_ms, 'B')}")
        else:
            # A fixed-width field's charge, once per type, by the same
            # float operations as per value.
            charge = model.field_ms + sql_type.storage_width * model.byte_ms
            if not (terms or may_be_null):
                row_ms += charge
                continue
            if sql_type not in fixed:
                fixed[sql_type] = src.const(charge, "A")
            value = fixed[sql_type]
        terms.append(f"({null} if r[{i}] is None else {value})"
                     if may_be_null else f"({value})")
    # A line per column keeps the code's location table small.
    expr = "\n+ ".join([src.const(row_ms, "R"), *terms])
    # The paper's "anomalous caching behavior in JDBC": rows produced by a
    # wide outer join bind every declared column and pay a super-linear
    # penalty; union-shaped results use the compact per-branch row format
    # and do not.
    declared_width = len(sql_types)
    if not compact_rows and declared_width > model.wide_threshold:
        wide = src.const(1.0 + model.wide_row_factor * (
            declared_width - model.wide_threshold), "W")
        expr = f"({expr}) * {wide}"
    if form == "row":
        src.add(0, "def charge(r):")
        src.add(1, f"return ({expr})")
    else:
        src.add(0, "def charge(rows):")
        src.add(1, f"return {src.const(reduce, 'REDUCE')}("
                   f"{src.const(add, 'ADD')}, [({expr}) for r in rows], 0.0)")
    return src
