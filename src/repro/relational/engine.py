"""Query execution with a deterministic analytical cost model.

The engine really executes plans over the in-memory database — results are
exact — while *timing* is simulated: every operator charges the
:class:`CostModel` an amount of simulated milliseconds derived from the work
it actually performed.  This replaces the paper's wall-clock measurements on
an unnamed commercial RDBMS with a reproducible model that preserves the
mechanisms the paper identifies as decisive:

* per-query startup overhead (hurts the fully partitioned strategy),
* join build/probe work, with **common-subexpression sharing** inside one
  query: identical sub-plans (by structural fingerprint) are evaluated once
  and re-read at a small per-row cost, the way an optimizer shares scans
  and join prefixes across the branches of a combined query.  Separate
  queries share nothing — this is why the fully partitioned strategy, whose
  ten queries each recompute their root-to-node join path, loses to a plan
  with fewer streams,
* blocking sorts with a memory budget and a spill penalty (hurts the unified
  plans, whose single wide integrated relation exceeds sort memory),
* an 'optimizer stress' *re-evaluation* penalty on deeply nested outer
  joins: when the right side of an outer join itself contains nested outer
  joins (depth >= ``reevaluation_threshold``), the weak optimizer fails to
  flatten the derived table and re-evaluates it per outer row.  Query 1's
  chained ``*`` edges produce such plans and some of them blow past the
  5-minute budget, exactly as in the paper's sweep; Query 2's parallel
  ``*`` edges never nest that deep and none time out.

Transfer (client-side binding) costs live in
:mod:`repro.relational.connection`, since the paper separates query-only
time from total time.
"""

import math
from dataclasses import dataclass, replace
from operator import itemgetter

from repro.common.errors import ExecutionError, TimeoutExceeded
from repro.common.ordering import sort_key
from repro.relational import algebra, pipeline
from repro.relational.cache import NodeResultCache
from repro.relational.dependencies import plan_tables
from repro.relational.types import average_row_width
from repro.relational.algebra import (
    Scan,
    Filter,
    Project,
    Distinct,
    InnerJoin,
    LeftOuterJoin,
    OuterUnion,
    Sort,
    ColumnRef,
    Literal,
)


@dataclass(frozen=True)
class CostModel:
    """Coefficients of the simulated server, in milliseconds, and the one
    statement of every charge formula over them.

    ``speed`` scales every charge: Config A's 350 MHz server uses a larger
    value than Config B's 566 MHz one.  The remaining knobs correspond to
    the mechanisms listed in the module docstring; the ablation benchmark
    switches them off one at a time.

    Each ``*_ms`` method is one operator's unscaled charge as a pure
    function of counts: the batch pipelines and the ``_stream_*`` reference
    call it with what they counted, the estimator with what it guessed,
    and no coefficient is read outside this class.
    """

    speed: float = 1.0
    startup_ms: float = 15.0             # per submitted SQL query
    scan_row_ms: float = 0.010
    filter_row_ms: float = 0.002
    project_row_ms: float = 0.002
    hash_row_ms: float = 0.012           # distinct / hash-build per row
    probe_row_ms: float = 0.006
    join_out_row_ms: float = 0.004
    union_row_ms: float = 0.004
    rescan_row_ms: float = 0.002         # re-reading a shared subexpression
    sort_cmp_ms: float = 0.004           # per comparison, scaled by row width
    sort_width_norm: float = 64.0        # bytes; width scale for sort cost
    sort_memory_bytes: float = 256 * 1024
    spill_factor: float = 2.5            # extra passes once the sort spills
    #: Right-side outer-join nesting depth at which the optimizer gives up
    #: flattening and re-evaluates the derived table per outer row.
    reevaluation_threshold: int = 2
    #: Extra cost of each re-evaluation, as a multiple of the right side's
    #: one-shot evaluation cost (loss of pipelining, no caching).
    reevaluation_factor: float = 100.0

    def scaled(self, ms):
        return ms * self.speed

    def scan_ms(self, n):
        """Reading ``n`` rows of a base table."""
        return n * self.scan_row_ms

    def filter_ms(self, n):
        """Testing a predicate on ``n`` input rows."""
        return n * self.filter_row_ms

    def project_ms(self, n):
        """Projecting ``n`` rows."""
        return n * self.project_row_ms

    def distinct_ms(self, n):
        """Hashing ``n`` input rows for duplicate elimination."""
        return n * self.hash_row_ms

    def union_ms(self, n_out):
        """Assembling the ``n_out`` rows an outer union emits."""
        return n_out * self.union_row_ms

    def rescan_ms(self, n):
        """Re-reading the ``n`` rows of a sub-plan shared within a query."""
        return n * self.rescan_row_ms

    def join_ms(self, n_build, n_probes, n_out):
        """A hash join: ``n_build`` rows indexed, ``n_probes`` lookups,
        ``n_out`` rows emitted.  An inner join indexes its right rows and
        probes once per left row; an outer join indexes a right row per
        branch accepting it and probes every branch per left row."""
        return (
            n_build * self.hash_row_ms
            + n_probes * self.probe_row_ms
            + n_out * self.join_out_row_ms
        )

    def reevaluates(self, right_plan):
        """Whether an outer join over the derived table ``right_plan`` pays
        :meth:`reevaluation_ms`: it nests outer joins
        ``reevaluation_threshold`` deep.  Plan-structural."""
        depth = algebra.outer_join_nesting(right_plan)
        return depth >= self.reevaluation_threshold

    def reevaluation_ms(self, n_left, right_ms):
        """Re-evaluating the derived table for every left row but the
        first.  ``right_ms`` is what the right side cost *as charged*, so
        already scaled; a charge is scaled again, so the speed goes out."""
        penalty = max(n_left - 1, 0) * right_ms * self.reevaluation_factor
        if self.speed:
            penalty /= self.speed
        return penalty

    def sort_ms(self, n, row_bytes):
        """Sorting ``n`` rows averaging ``row_bytes``: ``n log2(n+1)``
        comparisons weighted by row width, times the spill penalty once
        the input outgrows ``sort_memory_bytes``."""
        cost = n * math.log2(n + 1) * self.sort_cmp_ms * (
            1.0 + row_bytes / self.sort_width_norm
        )
        total_bytes = n * row_bytes
        if total_bytes > self.sort_memory_bytes:
            overflow = total_bytes / self.sort_memory_bytes - 1.0
            cost *= 1.0 + self.spill_factor * overflow
        return cost

    def without(self, knob):
        """A copy with one mechanism disabled — for ablation benches.
        Each of the three enters its formula as a term or a factor of one
        (``1.0 + spill_factor * overflow``), so zero is neutral for all."""
        if knob not in ("startup_ms", "spill_factor", "reevaluation_factor"):
            raise ValueError(f"unknown ablation knob {knob!r}")
        return replace(self, **{knob: 0.0})


#: Cost model for the paper's Configuration A (1 MB database, AMD K6-2
#: 350 MHz server).  Slow server: high per-row and startup charges.
CONFIG_A_COST_MODEL = CostModel(speed=4.0)

#: Cost model for Configuration B (100 MB database, Intel Celeron 566 MHz).
CONFIG_B_COST_MODEL = CostModel(speed=1.0, sort_memory_bytes=1024 * 1024)


@dataclass
class ExecutionResult:
    """Result of executing one plan: exact rows plus simulated timings.

    ``transfer_sums`` is where the connection keeps what it summed over
    these rows: the plan-cache entry's dict
    (:attr:`~repro.relational.cache.CacheEntry.transfer_sums`) when the
    rows are an entry's, one of the result's own when no cache is installed.
    """

    columns: tuple
    rows: list
    server_ms: float
    rows_examined: int
    breakdown: dict
    transfer_sums: dict

    @property
    def row_count(self):
        return len(self.rows)


class IterResult:
    """Result of a streaming execution: a row iterator plus live charges.

    ``server_ms`` / ``rows_examined`` / ``breakdown`` read the underlying
    accumulator *as charged so far*; they are final once :attr:`exhausted`
    is True (the iterator has been fully drained).
    """

    def __init__(self, columns, charges):
        self.columns = columns
        self._charges = charges
        self._rows = None
        self.exhausted = False

    def _attach(self, generator):
        def tracked():
            yield from generator
            self.exhausted = True
        self._rows = tracked()

    def __iter__(self):
        return self._rows

    def close(self):
        """Abandon the stream: close the row generator so the undrained
        rows (on the interpreter: every pipeline-breaker buffer — sort
        runs, hash indexes) and the shared-sub-plan memo are released
        immediately instead of at garbage collection.
        Safe to call repeatedly; a closed result stays un-:attr:`exhausted`
        and its charges are frozen at the consumed prefix."""
        if self._rows is not None:
            self._rows.close()
        self._charges.memo.clear()

    @property
    def server_ms(self):
        return self._charges.total_ms

    @property
    def rows_examined(self):
        return self._charges.rows_examined

    @property
    def breakdown(self):
        return self._charges.breakdown


class _Charges:
    """Mutable accumulator for simulated cost, with a timeout budget.

    When ``log`` is a list, every (already scaled) charge is also appended
    to it so the execution can later be *replayed* from a
    :class:`~repro.relational.cache.PlanResultCache` entry with identical
    totals, breakdown order, and timeout behaviour.
    """

    def __init__(self, model, budget_ms, results=None, metrics=None):
        self.model = model
        self.budget_ms = budget_ms
        #: Where the batch pipelines look up and keep their results: the
        #: engine's node-result cache under :meth:`QueryEngine.execute`,
        #: None (nowhere) under a cursor.
        self.results = results
        #: This execution's :class:`~repro.obs.metrics.MetricsRegistry`
        #: (or None).  It rides on the execution, not on the shared cache,
        #: so concurrent executions under different observability
        #: sessions each count their own ``node_cache.*`` events.
        self.metrics = metrics
        self.total_ms = 0.0
        self.rows_examined = 0
        self.breakdown = {}
        self.memo = {}
        self.log = None

    def charge(self, label, ms, rows=0):
        ms = self.model.scaled(ms)
        self.total_ms += ms
        self.rows_examined += rows
        self.breakdown[label] = self.breakdown.get(label, 0.0) + ms
        if self.log is not None:
            self.log.append((label, ms, rows))
        if self.budget_ms is not None and self.total_ms > self.budget_ms:
            raise TimeoutExceeded(self.budget_ms, self.total_ms)

    def cached(self, fingerprint):
        """The kept result of the sub-plan ``fingerprint``, or None."""
        if self.results is None:
            return None
        value = self.results.get(fingerprint)
        if self.metrics is not None:
            self.metrics.inc(
                "node_cache.misses" if value is None else "node_cache.hits"
            )
        return value

    def keep(self, fingerprint, value, tables):
        """Keep ``value`` as the result of the sub-plan ``fingerprint``,
        which reads base ``tables``."""
        if self.results is None:
            return
        evicted = self.results.store(fingerprint, value, tables)
        if self.metrics is not None:
            self.metrics.inc("node_cache.stores")
            if evicted:
                self.metrics.inc("node_cache.evictions", evicted)

    def replay(self, charge_log):
        """Re-apply a recorded charge log: the same additions in the same
        order as the original run, including raising ``TimeoutExceeded`` at
        the same charge when the budget is exceeded."""
        breakdown = self.breakdown
        for label, ms, rows in charge_log:
            self.total_ms += ms
            self.rows_examined += rows
            breakdown[label] = breakdown.get(label, 0.0) + ms
            if self.budget_ms is not None and self.total_ms > self.budget_ms:
                raise TimeoutExceeded(self.budget_ms, self.total_ms)


def _drain(rows):
    """Yield ``rows`` destructively: a consumed row's slot is released, so
    fully tagged prefixes of an arbitrarily large stream can be collected
    while the tail is still being merged."""
    for i in range(len(rows)):
        row = rows[i]
        rows[i] = None
        yield row


def _key_plan(positions):
    """Join-key extraction for the interpreter: ``(extractor, single)``.
    One column's key is the scalar (tested with ``is None``), several
    columns' an :func:`~operator.itemgetter` tuple."""
    if not positions:
        return _empty_key, False
    if len(positions) == 1:
        return itemgetter(positions[0]), True
    return itemgetter(*positions), False


def _empty_key(row):
    return ()


#: The execution modes a :class:`QueryEngine` can be built in.
ENGINE_MODES = ("batch", "tuple")


class QueryEngine:
    """Executes algebra plans over a :class:`repro.relational.database.Database`.

    Two interchangeable execution modes produce byte-identical results,
    charge logs, and cache entries, behind both entry points
    (:meth:`execute` returns the rows as a list, :meth:`execute_iter` a
    cursor over them):

    * ``"batch"`` (the default) — plans are cut into pipelines, each run
      as one generated loop nest, and pipeline breakers
      (:mod:`repro.relational.pipeline`) that pass
      :class:`~repro.relational.batch.Batch` objects.  :meth:`execute`
      offers every pipeline's and breaker's result to the node-result
      cache, which keeps one from its second computation on; a cursor runs
      the *same* lowered plan keeping nothing, so its memory is the final
      sort buffer plus the largest single pipeline step;
    * ``"tuple"`` — the row-at-a-time Volcano interpreter (the
      ``_stream_*`` generators), drained into a list by :meth:`execute`
      and handed out lazily by :meth:`execute_iter`.  It is the
      independent *reference* the pipelines are tested against, not a
      production path.

    Every operator therefore exists exactly twice: as generated pipeline
    code (or a breaker) and as a ``_stream_*`` generator.

    ``engine`` fixes the mode for the engine's life (:attr:`mode`): a
    reference is an engine you build, not something a call asks for.
    Because results, simulated timings, and cache keys are identical,
    engines of different modes may share one :attr:`cache`.
    """

    def __init__(self, database, cost_model=None, cache=None,
                 engine="batch"):
        self.database = database
        self.cost_model = cost_model or CostModel()
        #: Optional :class:`~repro.relational.cache.PlanResultCache` shared
        #: *across* execute calls (and across engines, if desired).
        self.cache = cache
        if engine not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {engine!r}")
        self.mode = engine
        #: Pipeline and breaker results shared across executions (the batch
        #: engine's "data half"): kept from their second computation on,
        #: retired by :meth:`_refresh_dependencies` after a write to a
        #: table they read.
        self.node_cache = NodeResultCache()
        #: Per-table generation snapshot from the last evaluation; diffed
        #: against the live database to find mutated tables.
        self._table_gens = None

    #: The base tables a plan reads (kept on the plan) — its invalidation
    #: footprint for delta propagation.
    tables_for = staticmethod(plan_tables)

    def dependency_key(self, plan):
        """The dependency component of ``plan``'s cache key: the database
        token plus the current generations of exactly the tables the plan
        reads.  Mutating any other table leaves this key valid."""
        return self.database.dependency_key(self.tables_for(plan))

    def cache_key_for(self, plan):
        """The :attr:`cache` key identifying ``plan`` on this engine.

        Dependency-scoped: the database component holds per-table
        generations of the plan's base tables, so entries for plans that
        do not read a mutated table survive the write and keep replaying.
        """
        return (plan.fingerprint(), self.dependency_key(plan), self.cost_model)

    def _refresh_dependencies(self, metrics=None):
        """Delta propagation, at the first evaluation that sees a write:
        diff the live per-table generations against the last-seen
        snapshot and invalidate exactly the cache entries that depend on
        mutated tables.  Node-cache entries for untouched sub-plans
        survive and keep serving; plan-cache entries under dead dependency
        keys can never be served again (the key moved), so retiring them
        — rows, charge log and transfer sums together — is garbage
        collection plus accounting: the heap follows the live data, not
        the write count."""
        current = self.database.table_generations()
        previous = self._table_gens
        if previous == current:
            return
        self._table_gens = current
        if previous is None:
            return
        changed = {
            name for name, generation in current.items()
            if previous.get(name) != generation
        }
        dropped = self.node_cache.invalidate(changed)
        if metrics is not None and dropped:
            metrics.inc("node_cache.invalidations", dropped)
        if self.cache is not None:
            dropped = self.cache.discard_stale(self.database)
            if metrics is not None and dropped:
                metrics.inc("plan_cache.invalidations", dropped)

    def cached_complete(self, plan):
        """True when :attr:`cache` holds a *complete* entry for ``plan`` —
        i.e. :meth:`execute` would replay it without re-evaluating.  A
        peek: does not count as a cache request.  The resilient dispatcher
        uses this to serve cached plans without contacting the (possibly
        faulty) source."""
        if self.cache is None:
            return False
        entry = self.cache.peek(self.cache_key_for(plan))
        return entry is not None and entry.complete

    def execute(self, plan, budget_ms=None, metrics=None):
        """Run ``plan``; return an :class:`ExecutionResult`.

        ``budget_ms`` is a simulated-time budget (the paper's 5-minute
        per-subquery timeout); exceeding it raises
        :class:`~repro.common.errors.TimeoutExceeded`.  The per-query
        ``startup`` charge comes first, always.

        With a :attr:`cache` installed, a plan already executed against the
        current database generation is *replayed* instead of re-evaluated:
        the result (rows, timings, breakdown, timeout behaviour) is
        byte-identical, only the wall-clock cost disappears.  Result rows
        may then be shared between callers and must be treated as
        immutable.

        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) counts
        each execution once as a ``plan_cache.hits`` (served by replay) or
        ``plan_cache.misses`` (evaluated fresh, including single-flight
        leaders); executions with no cache installed count neither.
        """
        charges = _Charges(self.cost_model, budget_ms,
                           results=self.node_cache, metrics=metrics)
        charges.charge("startup", self.cost_model.startup_ms)
        cache = self.cache
        if cache is None:
            rows = self._evaluate(plan, charges)
            return self._result(plan, rows, charges, {})
        key = self.cache_key_for(plan)
        while True:
            entry = cache.lookup(
                key, spent_ms=charges.total_ms, budget_ms=charges.budget_ms
            )
            if entry is not None:
                if metrics is not None:
                    metrics.inc("plan_cache.hits")
                charges.replay(entry.charge_log)
                # An incomplete entry is only served when the replay is
                # guaranteed to raise, so reaching here means the entry is
                # complete and ``entry.rows`` is the full result (or, from
                # a cost-only cache, its ``RowCount``).
                return self._result(plan, entry.rows, charges,
                                    entry.transfer_sums)
            # Single-flight: N simultaneous misses on the same plan (the
            # server's request threads share the engine) run it once; the
            # waiters loop back and replay the leader's entry
            # bit-identically.
            if cache.begin(key):
                if metrics is not None:
                    metrics.inc("plan_cache.misses")
                break
        try:
            charges.log = []
            try:
                rows = self._evaluate(plan, charges)
            except TimeoutExceeded:
                cache.record(key, plan, None, charges.log)
                raise
            entry = cache.record(key, plan, rows, charges.log)
        finally:
            cache.finish(key)
        return self._result(plan, rows, charges, entry.transfer_sums)

    def rows(self, plan, metrics=None):
        """``plan``'s rows, evaluated fresh and charged to nobody: what a
        caller replaying a cost-only entry asks for when it needs data."""
        return self._evaluate(plan, _Charges(
            self.cost_model, None, results=self.node_cache, metrics=metrics,
        ))

    def _evaluate(self, plan, charges):
        """Evaluate ``plan`` fresh in :attr:`mode`; return the result
        rows.  In either mode this is the read that first sees a write,
        so the retire-on-write sweep runs here."""
        self._refresh_dependencies(charges.metrics)
        if self.mode == "tuple":
            return list(self._stream_plan(plan, charges))
        return pipeline.evaluate(plan, self.database, charges).rows()

    def execute_iter(self, plan, budget_ms=None, metrics=None):
        """Open a cursor on ``plan``; return an :class:`IterResult`.

        Arguments, modes and results are :meth:`execute`'s: the drained
        rows, the charge log — same values, same order — and hence
        ``server_ms``, the breakdown and the charge at which a
        ``budget_ms`` overrun raises are bit-identical to it in either
        mode.  What differs is what is kept.

        Opening charges ``startup`` (so a budget below it raises
        :class:`~repro.common.errors.TimeoutExceeded` from this call),
        looks the plan up in :attr:`cache` and counts the hit or miss;
        everything else happens on first ``next()``, which is where later
        budget overruns raise.  A hit replays the recorded charge log and
        streams the cached rows.  A *miss is never stored*, and the run
        neither reads nor feeds the node-result cache.

        On the default ``"batch"`` engine the first ``next()`` evaluates
        the lowered plan — the one :meth:`execute` runs — in a transient
        run: a pipeline's or breaker's result lives only while the unit
        above consumes it (sub-plans shared within the query stay in the
        per-execution memo until the plan is done), and the sorted rows are
        handed out destructively, so fully tagged prefixes of the output
        can be collected while the tail is still being merged.  Peak memory
        is the final sort buffer plus the largest single pipeline step, not
        the sum of every intermediate — which is what lets
        :meth:`XmlView.materialize_to
        <repro.core.silkroute.XmlView.materialize_to>` stream large views.

        On a ``"tuple"`` engine the rows come from the ``_stream_*``
        generators instead (scan → filter → project chains stream row by
        row; sort, distinct and the hash joins are pipeline breakers): the
        reference the pipelines are checked against.  It wraps every sort
        key and resumes a generator per row per operator, so it takes over
        twice the time.
        """
        charges = _Charges(self.cost_model, budget_ms, metrics=metrics)
        charges.charge("startup", self.cost_model.startup_ms)
        result = IterResult(plan.columns(), charges)
        cache = self.cache
        if cache is not None:
            entry = cache.lookup(
                self.cache_key_for(plan),
                spent_ms=charges.total_ms, budget_ms=budget_ms,
            )
            if entry is not None:
                if metrics is not None:
                    metrics.inc("plan_cache.hits")

                def replay_rows():
                    charges.replay(entry.charge_log)
                    yield from entry.rows
                result._attach(replay_rows())
                return result
            if metrics is not None:
                metrics.inc("plan_cache.misses")
        if self.mode == "tuple":
            result._attach(self._stream_plan(plan, charges))
        else:
            result._attach(self._drain_plan(plan, charges))
        return result

    def _drain_plan(self, plan, charges):
        """The batch engine's cursor: the lowered plan evaluated at the
        first ``next()``, then drained from a copy of its row list — the
        drain must not rest on every unit returning a list that nothing
        else (a table, a batch) holds."""
        try:
            rows = list(self._evaluate(plan, charges))
        finally:
            charges.memo.clear()
        yield from _drain(rows)

    def _result(self, plan, rows, charges, transfer_sums):
        return ExecutionResult(
            columns=plan.columns(),
            rows=rows,
            server_ms=charges.total_ms,
            rows_examined=charges.rows_examined,
            breakdown=charges.breakdown,
            transfer_sums=transfer_sums,
        )

    # -- row-at-a-time (Volcano-style) evaluation ---------------------------
    #
    # The one row interpreter, what a ``"tuple"`` engine runs: ``execute`` drains
    # it into a list, ``execute_iter`` hands it out lazily.  Each operator is a
    # generator that counts its own rows and charges the :class:`CostModel`
    # method its pipeline event in :mod:`~repro.relational.pipeline` calls —
    # the formula is that method, neither copy states one — when its stream
    # completes (the generator chain unwinds bottom-up, so a pipelined
    # scan→filter→project charges in the batch order).  Sub-plans occurring
    # more than once in the query (``shared``) are drained into the
    # per-execution memo on first use and re-read at rescan cost, exactly
    # like the optimizer's common-subexpression sharing — re-reading a
    # stream twice is impossible without materializing it.

    def _stream_plan(self, plan, charges):
        """All of ``plan``'s rows, lazily; the shared-sub-plan memo is
        released when the stream ends or is closed."""
        try:
            yield from self._stream(plan, charges,
                                    algebra.shared_fingerprints(plan))
        finally:
            charges.memo.clear()

    def _stream(self, op, charges, shared):
        key = op.fingerprint()
        if key in charges.memo:
            rows = charges.memo[key]
            charges.charge(
                "rescan", self.cost_model.rescan_ms(len(rows)), len(rows)
            )
            return iter(rows)
        if key in shared:
            rows = charges.memo[key] = list(
                self._stream_fresh(op, charges, shared)
            )
            return iter(rows)
        return self._stream_fresh(op, charges, shared)

    def _stream_fresh(self, op, charges, shared):
        try:
            stream = self._STREAMS[type(op)]
        except KeyError:
            raise ExecutionError(f"cannot execute operator {op!r}") from None
        return stream(self, op, charges, shared)

    def _stream_scan(self, op, charges, shared):
        rows = self.database.table(op.table_schema.name).rows
        charges.charge("scan", self.cost_model.scan_ms(len(rows)), len(rows))
        yield from rows

    def _stream_filter(self, op, charges, shared):
        # The predicate's own definition, not the source the pipelines
        # inline: the reference shares no code with what it checks.
        evaluate, positions = op.predicate.evaluate, op.child.positions()
        n = 0
        for row in self._stream(op.child, charges, shared):
            n += 1
            if evaluate(row, positions):
                yield row
        charges.charge("filter", self.cost_model.filter_ms(n), n)

    def _stream_project(self, op, charges, shared):
        positions = op.child.positions()
        plan = []
        for item in op.items:
            if isinstance(item.expr, ColumnRef):
                plan.append((True, positions[item.expr.name]))
            elif isinstance(item.expr, Literal):
                plan.append((False, item.expr.value))
            else:
                raise ExecutionError(f"unsupported projection {item.expr!r}")
        n = 0
        for row in self._stream(op.child, charges, shared):
            n += 1
            yield tuple(row[p] if is_col else p for is_col, p in plan)
        charges.charge("project", self.cost_model.project_ms(n), n)

    def _stream_distinct(self, op, charges, shared):
        seen = set()
        n = 0
        for row in self._stream(op.child, charges, shared):
            n += 1
            if row not in seen:
                seen.add(row)
                yield row
        charges.charge("distinct", self.cost_model.distinct_ms(n), n)

    def _stream_inner_join(self, op, charges, shared):
        # The probe (left) side is consumed *first and materialized*: the
        # batch engine evaluates left before right, and matching that order
        # keeps the memo's common-subexpression assignments — hence the
        # whole charge log — bit-identical.  The build side streams into
        # its hash index and the join output is never held.
        left_rows = list(self._stream(op.left, charges, shared))
        left_pos = op.left.positions()
        right_pos = op.right.positions()
        build_get, build_single = _key_plan(
            [right_pos[r] for _, r in op.equalities]
        )
        probe_get, probe_single = _key_plan(
            [left_pos[l] for l, _ in op.equalities]
        )
        index = {}
        setdefault = index.setdefault
        n_right = 0
        for row in self._stream(op.right, charges, shared):
            n_right += 1
            key = build_get(row)
            if (key is None) if build_single else (None in key):
                continue
            setdefault(key, []).append(row)
        lookup = index.get
        n_out = 0
        for i in range(len(left_rows)):
            row = left_rows[i]
            left_rows[i] = None
            key = probe_get(row)
            if (key is None) if probe_single else (None in key):
                continue
            for match in lookup(key, ()):
                n_out += 1
                yield row + match
        charges.charge(
            "join",
            self.cost_model.join_ms(n_right, len(left_rows), n_out),
            len(left_rows) + n_right,
        )

    def _stream_outer_join(self, op, charges, shared):
        # As in the inner join: left (probe) side first and materialized to
        # mirror the batch engine's evaluation — and charge — order; the
        # right side (the derived table) streams into the per-branch
        # indexes in one pass, and the joined output is never held.
        left_rows = list(self._stream(op.left, charges, shared))
        left_pos = op.left.positions()
        right_pos = op.right.positions()
        null_pad = (None,) * len(op.right.columns())

        branch_builds = []
        for branch in op.branches:
            build_get, build_single = _key_plan(
                [right_pos[r] for _, r in branch.equalities]
            )
            tag_position = (
                right_pos[branch.tag_column]
                if branch.tag_column is not None else None
            )
            probe_get, probe_single = _key_plan(
                [left_pos[l] for l, _ in branch.equalities]
            )
            branch_builds.append(
                (build_get, build_single, tag_position, branch.tag_value,
                 probe_get, probe_single, {})
            )

        right_start_ms = charges.total_ms
        n_right = 0
        build_work = 0
        for row in self._stream(op.right, charges, shared):
            n_right += 1
            for (build_get, build_single, tag_position, tag_value,
                 _, _, index) in branch_builds:
                if tag_position is not None and row[tag_position] != tag_value:
                    continue
                key = build_get(row)
                if (key is None) if build_single else (None in key):
                    continue
                index.setdefault(key, []).append(row)
                build_work += 1
        right_cost_ms = charges.total_ms - right_start_ms

        n_out = 0
        for i in range(len(left_rows)):
            row = left_rows[i]
            left_rows[i] = None
            matched = False
            for (_, _, _, _, probe_get, probe_single, index) in branch_builds:
                key = probe_get(row)
                if (key is None) if probe_single else (None in key):
                    continue
                for match in index.get(key, ()):
                    n_out += 1
                    yield row + match
                    matched = True
            if not matched:
                n_out += 1
                yield row + null_pad

        model = self.cost_model
        charges.charge(
            "outer_join",
            model.join_ms(
                build_work, len(left_rows) * len(op.branches), n_out
            ),
            len(left_rows) + n_right,
        )
        if model.reevaluates(op.right):
            charges.charge(
                "outer_join_reevaluation",
                model.reevaluation_ms(len(left_rows), right_cost_ms),
            )

    def _stream_union(self, op, charges, shared):
        out_columns = op.column_names()
        seen = set() if op.distinct else None
        n_out = 0
        for child in op.inputs:
            child_names = child.column_names()
            mapping = {name: i for i, name in enumerate(child_names)}
            slots = [mapping.get(name) for name in out_columns]
            for row in self._stream(child, charges, shared):
                out = tuple(None if s is None else row[s] for s in slots)
                if seen is not None:
                    if out in seen:
                        continue
                    seen.add(out)
                n_out += 1
                yield out
        charges.charge("union", self.cost_model.union_ms(n_out), n_out)

    def _stream_sort(self, op, charges, shared):
        rows = list(self._stream(op.child, charges, shared))
        positions = op.child.positions()
        key_positions = [positions[k] for k in op.keys]
        out = sorted(
            rows, key=lambda r: sort_key([r[p] for p in key_positions])
        )

        n = len(rows)
        if n:
            row_bytes = average_row_width(op.child.columns(), rows)
            charges.charge("sort", self.cost_model.sort_ms(n, row_bytes), n)
        del rows
        yield from _drain(out)

    _STREAMS = {
        Scan: _stream_scan, Filter: _stream_filter, Project: _stream_project,
        Distinct: _stream_distinct, InnerJoin: _stream_inner_join,
        LeftOuterJoin: _stream_outer_join, OuterUnion: _stream_union,
        Sort: _stream_sort,
    }
