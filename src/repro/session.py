"""One client facade over the whole execution surface.

Historically each capability grew its own entry point: materialization
lived on :class:`~repro.core.silkroute.XmlView`, sweeps in
:func:`repro.bench.sweep.sweep_partitions`, mutations in ad-hoc driver
code (the CLI's delta synthesizer).  :class:`Session` consolidates them
behind one object with one return type::

    from repro import Session

    session = Session()                       # Configuration-A TPC-H
    result = session.materialize(RXL_TEXT, indent=2)
    print(result.xml)
    session.mutate("Nation", op="insert", rows=2)
    result = session.materialize(RXL_TEXT, indent=2)   # incremental

Every query method returns a :class:`QueryResult` — XML (when the method
produces a document), the :class:`~repro.core.silkroute.PlanReport`,
generated SQL, sweep series, and a ``stats`` dict of cache counters —
so callers switch between ``materialize``/``explain``/``sweep`` without
re-learning a result shape.

A session owns one :class:`~repro.core.silkroute.SilkRoute` (or wraps
one you built) and caches its :class:`XmlView` per RXL text (over the
process's :class:`~repro.core.silkroute.ViewDefinition`), so repeated
queries share planners, splice caches, and finished-document
caches.  Default :class:`~repro.core.options.ExecutionOptions` given at
construction apply to every call; per-call ``options=`` or explicit
keywords override them.

The serving layer (:mod:`repro.serve`) runs one shared ``Session`` for
all tenants — the per-RXL view cache is exactly what makes its result
reuse and request coalescing process-wide.
"""

from dataclasses import dataclass, field

from repro.bench.sweep import sweep_partitions
from repro.core.options import ExecutionOptions  # noqa: F401
from repro.core.silkroute import SilkRoute
from repro.relational.cache import BoundedCache


@dataclass
class QueryResult:
    """The one result type of every :class:`Session` query method.

    Which fields are populated depends on the method:

    ========================  =======================================
    method                    populated fields
    ========================  =======================================
    :meth:`Session.materialize`     ``xml``, ``report``, ``tagger``, ``stats``
    :meth:`Session.materialize_to`  ``report``, ``tagger``, ``stats`` (the
                                    document went to the caller's sink)
    :meth:`Session.explain`         ``sql``
    :meth:`Session.sweep`           ``sweep``, ``stats``
    :meth:`Session.mutate`          ``mutated``, ``table``, ``stats``
    ========================  =======================================

    ``stats`` carries point-in-time cache counters (plan / document /
    splice caches) plus, for served requests, the coalescing counters;
    ``coalesced`` is True when the serving layer satisfied this request
    from another identical in-flight request's execution.
    """

    xml: str = None
    report: object = None
    sql: tuple = ()
    sweep: object = None
    stats: dict = field(default_factory=dict)
    coalesced: bool = False
    mutated: int = None
    table: str = None
    tagger: object = None

    @property
    def query_ms(self):
        """The report's simulated server milliseconds (None without one)."""
        return self.report.query_ms if self.report is not None else None

    @property
    def transfer_ms(self):
        """The report's simulated transfer milliseconds (None without one)."""
        return self.report.transfer_ms if self.report is not None else None


def apply_delta(database, table_name, op="insert", rows=1, seed=0):
    """Apply a synthesized ``op`` delta of ``rows`` rows to ``table_name``;
    returns the affected-row count.

    Deterministic given ``seed`` and the database's current contents:
    ``insert`` synthesizes schema- and foreign-key-consistent rows,
    ``delete`` removes the last ``rows`` rows by key, and ``update``
    perturbs the first non-key, non-foreign-key column of the first
    ``rows`` rows (keys and join columns stay put, so the delta changes
    content without re-wiring views).  This is the mutation primitive
    behind :meth:`Session.mutate` and the CLI's ``mutate`` command.
    """
    import datetime

    from repro.common.errors import SchemaError
    from repro.relational.database import synthesize_rows

    if rows < 1:
        raise ValueError(f"a delta needs at least 1 row, got {rows}")
    table = database.table(table_name)
    schema = table.schema
    if op == "insert":
        new_rows = synthesize_rows(database, table_name, rows, seed=seed)
        for row in new_rows:
            database.insert(table_name, *row)
        return len(new_rows)
    positions = [schema.column_index(k) for k in schema.key]
    if op == "delete":
        victims = {
            tuple(row[p] for p in positions) for row in table.rows[-rows:]
        }
        return database.delete(
            table_name,
            lambda row: tuple(row[k] for k in schema.key) in victims,
        )
    if op != "update":
        raise ValueError(f"unknown mutation op {op!r} "
                         "(expected insert, update, or delete)")
    targets = {
        tuple(row[p] for p in positions) for row in table.rows[:rows]
    }
    key_names = set(schema.key)
    fk_names = {
        column
        for fk in database.schema.foreign_keys
        if fk.table == table_name
        for column in fk.columns
    }
    column = next(
        (c for c in schema.columns
         if c.name not in key_names and c.name not in fk_names),
        None,
    )
    if column is None:
        raise SchemaError(
            f"{table_name} has no updatable (non-key, non-foreign-key) column"
        )

    def bump(row):
        value = row[column.name]
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (int, float)):
            return value + 1
        if isinstance(value, datetime.date):
            return value + datetime.timedelta(days=1)
        return f"updated-{seed}-{row[schema.key[0]]}"

    return database.update(
        table_name,
        lambda row: tuple(row[k] for k in schema.key) in targets,
        {column.name: bump},
    )


class Session:
    """A client session: parsed-view cache + default options + one
    result type.

    ``db`` may be

    * None — build the paper's Configuration-A TPC-H database
      (deterministic seed, same as the CLI),
    * a :class:`~repro.relational.database.Database`,
    * a :class:`~repro.relational.connection.Connection`, or
    * a :class:`~repro.core.silkroute.SilkRoute` (wrapped as is;
      ``cache``/``estimator``/``source`` must then be left at their
      defaults).

    ``options`` (an :class:`~repro.core.options.ExecutionOptions`) sets
    session-wide defaults; each call's ``options=``/keywords override.
    ``cache=True`` (the default) installs a shared
    :class:`~repro.relational.cache.PlanResultCache`, which also enables
    the per-view splice and finished-document caches — the incremental
    path.  ``document_cache_bytes`` bounds each view's finished-document
    cache by total XML size (LRU).

    ``wal`` makes the session durable: a directory path (or an existing
    :class:`~repro.relational.wal.WriteAheadLog`) the database commits
    every mutation through.  When the directory already holds state from
    a previous run, the session *recovers it on construction* — tables,
    generation counters, and the request-dedup map come back exactly as
    committed, and :attr:`recovery` carries the
    :class:`~repro.relational.wal.RecoveryReport`.  ``checkpoint_every``
    snapshots + truncates the log after every N commit records.
    """

    def __init__(self, db=None, options=None, cache=True, estimator=None,
                 source=None, document_cache_bytes=None, wal=None,
                 checkpoint_every=None):
        self.options = options
        self.document_cache_bytes = document_cache_bytes
        #: RXL text -> view; bounded, for a client may send any number.
        self._views = BoundedCache("views", max_entries=256)
        self._silkroute = self._resolve(db, cache, estimator, source)
        #: Without a WAL, request id -> recorded mutate result: process-
        #: local and capped, enough to absorb a client's in-session
        #: retries.  With one, the log's own (durable) map is consulted.
        self._dedup = BoundedCache("mutation_dedup", max_entries=4096)
        self.wal = None
        self.recovery = None
        if wal is not None:
            from repro.relational.wal import WriteAheadLog

            if not isinstance(wal, WriteAheadLog):
                wal = WriteAheadLog(wal, checkpoint_every=checkpoint_every)
            elif checkpoint_every is not None:
                wal.checkpoint_every = checkpoint_every
            self.wal = wal
            self.recovery = wal.attach(self.database)

    @staticmethod
    def _resolve(db, cache, estimator, source):
        if isinstance(db, SilkRoute):
            return db
        if db is None:
            from repro.tpch.configs import CONFIG_A, build_configuration

            _, connection, built_estimator = build_configuration(CONFIG_A)
            return SilkRoute(
                connection, estimator=estimator or built_estimator,
                cache=cache, source=source,
            )
        from repro.relational.connection import Connection

        if isinstance(db, Connection):
            connection = db
        else:
            from repro.relational.engine import CostModel

            connection = Connection(db, CostModel())
        if estimator is None:
            from repro.relational.estimator import CostEstimator

            estimator = CostEstimator(
                connection.database, connection.engine.cost_model,
            )
        return SilkRoute(
            connection, estimator=estimator, cache=cache, source=source,
        )

    # -- plumbing ----------------------------------------------------------

    @property
    def silkroute(self):
        """The underlying :class:`~repro.core.silkroute.SilkRoute`."""
        return self._silkroute

    @property
    def connection(self):
        return self._silkroute.connection

    @property
    def database(self):
        return self._silkroute.connection.database

    def view(self, query):
        """The :class:`~repro.core.silkroute.XmlView` for ``query``
        (RXL text or a defined view), the 256 last used texts cached."""
        if isinstance(query, str):
            view = self._views.get(query)
            if view is None:
                view = self._silkroute.define_view(query)
                if self.document_cache_bytes is not None:
                    view.document_cache.max_bytes = self.document_cache_bytes
                self._views.store(query, view)
            return view
        return query  # an XmlView (or duck-typed equivalent)

    def _options(self, options):
        return options if options is not None else self.options

    def _stats(self, view=None):
        stats = {}
        cache = self._silkroute.cache
        if cache is not None:
            stats["plan_cache"] = cache.stats().as_dict()
        if view is not None:
            stats["document_cache"] = view.document_cache.stats().as_dict()
            stats["splice_cache"] = view.instance_cache.stats().as_dict()
        return stats

    # -- queries -----------------------------------------------------------

    def materialize(self, query, partition=None, root_tag="view",
                    indent=None, greedy_params=None, options=None,
                    **overrides):
        """Materialize ``query`` as XML; returns a :class:`QueryResult`
        with ``xml``, ``report``, ``tagger``, and cache ``stats``.

        ``partition`` selects the plan (None runs the greedy planner;
        the strings ``"unified"``/``"fully-partitioned"`` pick the
        endpoints).  Execution knobs come from ``options`` (falling back
        to the session defaults) with explicit keyword ``overrides``
        winning, e.g. ``session.materialize(q, workers=4)``.
        """
        view = self.view(query)
        result = view.materialize(
            partition, root_tag=root_tag, indent=indent,
            greedy_params=greedy_params, options=self._options(options),
            **overrides,
        )
        return QueryResult(
            xml=result.xml, report=result.report, tagger=result.tagger,
            stats=self._stats(view),
        )

    def materialize_to(self, query, sink, partition=None, root_tag="view",
                       indent=None, greedy_params=None, options=None,
                       **overrides):
        """Stream ``query``'s document into ``sink`` (a ``write``-able)
        in bounded memory; returns a :class:`QueryResult` whose ``xml``
        is None — the document went to the sink."""
        view = self.view(query)
        result = view.materialize_to(
            sink, partition, root_tag=root_tag, indent=indent,
            greedy_params=greedy_params, options=self._options(options),
            **overrides,
        )
        return QueryResult(
            report=result.report, tagger=result.tagger,
            stats=self._stats(view),
        )

    def explain(self, query, partition=None, options=None, **overrides):
        """The SQL a plan would send, without executing it; returns a
        :class:`QueryResult` whose ``sql`` is the tuple of statements."""
        view = self.view(query)
        sqls = view.explain(
            partition, options=self._options(options), **overrides,
        )
        return QueryResult(sql=tuple(sqls))

    def sweep(self, query, partitions=None, progress=None, cache=True,
              options=None, **overrides):
        """Execute every plan of ``query`` (or the given ``partitions``);
        returns a :class:`QueryResult` whose ``sweep`` is the
        :class:`~repro.bench.sweep.SweepResult`."""
        view = self.view(query)
        sweep = sweep_partitions(
            view.tree, self._silkroute.schema, self.connection,
            partitions=partitions, progress=progress, cache=cache,
            definition=view.definition, options=self._options(options),
            **overrides,
        )
        stats = self._stats()
        if sweep.cache_stats is not None:
            stats["sweep_cache"] = sweep.cache_stats.as_dict()
        return QueryResult(sweep=sweep, stats=stats)

    def mutate(self, table, op="insert", rows=1, seed=0, request_id=None):
        """Apply a synthesized delta to base table ``table`` (see
        :func:`apply_delta`); returns a :class:`QueryResult` with the
        affected-row count and the table's new generation in ``stats``.

        Mutations bump the table's generation, which moves every
        dependent cache key — the next materialization of an affected
        view re-executes only what the delta touched.

        ``request_id`` makes the mutation **exactly-once**: a repeat of
        an already-committed id returns the recorded result, marked
        ``stats["deduplicated"]``, without touching the database.  With a
        :attr:`wal` attached the whole delta commits as ONE durable
        record that carries the id, so that holds across process restarts
        too; without one the session remembers its last 4,096 ids.
        """
        if request_id is not None:
            recorded = (self.wal.request_result(request_id)
                        if self.wal is not None
                        else self._dedup.get(request_id))
            if recorded is not None:
                stats = self._stats()
                stats["generation"] = recorded["generation"]
                stats["deduplicated"] = True
                return QueryResult(
                    mutated=recorded["mutated"], table=recorded["table"],
                    stats=stats,
                )
        with self.database.transaction(request_id) as txn:
            changed = apply_delta(self.database, table, op=op, rows=rows,
                                  seed=seed)
            txn.result = recorded = {
                "mutated": changed, "table": table,
                "generation": self.database.table(table).version,
            }
        if self.wal is None and request_id is not None:
            self._dedup.store(request_id, recorded)
        stats = self._stats()
        stats["generation"] = recorded["generation"]
        return QueryResult(mutated=changed, table=table, stats=stats)

