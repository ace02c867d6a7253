"""Batch engine (repro.relational.batch / vector_ops): the identity twin.

The vectorized engine's contract is *bit-identity* with the tuple
interpreter: same rows, same simulated charges in the same order, same
cache entries — so the two modes are interchangeable under every feature
that composes with execution.  Tested here:

* **batches** — the row-major view of a column-major batch at any arity
  (including zero), single columns without a transpose;
* **per-stream identity** (hypothesis) — over random sweep partitions and
  both plan styles, every stream's rows, simulated timings, breakdown,
  and full ordered charge log match the tuple engine's, and the lowered
  plan run bare (``vector_ops.compile_plan``) matches them too;
* **end-to-end identity** (hypothesis) — materialized XML bytes and
  report figures match at every dispatch width and under injected
  faults on a replica pool;
* **sort semantics** (hypothesis) — the batch engine's one sort on a
  composite key reproduces :class:`~repro.common.ordering.NoneFirst`
  exactly, for NULLs, duplicates and pathological mixed-type columns;
* **mode plumbing** — the mode is fixed at construction
  (``QueryEngine(engine=…)`` / ``Connection(engine=…)``), validated there,
  and engines of different modes replay each other's cache entries.
"""

import datetime

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st,
)

from repro.cli import build_parser
from repro.common.errors import TimeoutExceeded, TransientConnectionError
from repro.common.ordering import NoneFirst, sort_key
from repro.core.options import ExecutionOptions, resolve_options
from repro.core.partition import enumerate_partitions, unified_partition
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.bench.queries import QUERY_1
from repro.obs.metrics import MetricsRegistry
from repro.relational import vector_ops
from repro.relational.batch import Batch
from repro.relational.cache import PlanResultCache
from repro.relational.connection import Connection
from repro.relational.engine import (
    ENGINE_MODES, CostModel, QueryEngine, _Charges,
)
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.algebra import (
    ColumnInfo, ColumnRef, Comparison, Distinct, Filter, InnerJoin, Literal,
    Operator, OuterUnion, Project, ProjectItem, Scan, Sort,
)
from repro.relational.types import SqlType


def fresh_view(tiny_db, tiny_estimator, engine="batch"):
    connection = Connection(tiny_db, CostModel(), engine=engine)
    silk = SilkRoute(connection, estimator=tiny_estimator)
    return silk.define_view(QUERY_1)


@pytest.fixture(scope="module")
def baseline(request):
    """The tuple-engine fully-partitioned run every identity test uses."""
    tiny_db = request.getfixturevalue("tiny_db")
    tiny_estimator = request.getfixturevalue("tiny_estimator")
    view = fresh_view(tiny_db, tiny_estimator, engine="tuple")
    return view.materialize("fully-partitioned")


@pytest.fixture(scope="module")
def q1_partitions(request):
    tiny_db = request.getfixturevalue("tiny_db")
    q1_tree = request.getfixturevalue("q1_tree")
    return list(enumerate_partitions(q1_tree))


# ---------------------------------------------------------------------------
# Batches


class TestBatch:
    def test_row_and_column_construction_agree(self):
        for arity in range(1, 5):
            rows = [
                tuple(f"v{r}.{c}" for c in range(arity)) for r in range(7)
            ]
            by_rows = Batch.from_rows(rows, arity)
            by_cols = Batch.from_columns(
                [list(c) for c in zip(*rows)], len(rows)
            )
            assert by_rows.rows() is rows
            assert by_cols.rows() == rows
            # Transposed once, then kept.
            assert by_cols.rows() is by_cols.rows()
            for i in range(arity):
                assert by_rows.col(i) == by_cols.col(i) == [
                    r[i] for r in rows
                ]
            assert len(by_rows) == len(by_cols) == 7
            assert by_cols.arity == arity

    def test_zero_arity_and_empty(self):
        empty = Batch.from_rows([], 2)
        assert empty.rows() == [] and empty.length == 0
        assert Batch.from_columns([[], []], 0).rows() == []
        # Zero-arity rows carry no columns; the length lives on the Batch.
        assert Batch.from_rows([(), (), ()], 0).rows() == [(), (), ()]
        zero = Batch.from_columns([], 3)
        assert zero.arity == 0 and len(zero) == 3
        assert zero.rows() == [(), (), ()]


# ---------------------------------------------------------------------------
# Sort semantics


class _Rows(Operator):
    """A leaf handing the kernel above it a prepared batch."""

    def __init__(self, batch):
        self.batch = batch
        self._cols = tuple(
            ColumnInfo(f"c{i}", SqlType.INTEGER) for i in range(batch.arity)
        )

    def columns(self):
        return self._cols

    def _fingerprint(self):
        return ("rows", id(self))


class _LeafCompiler(vector_ops._PlanCompiler):
    _KERNELS = {
        **vector_ops._PlanCompiler._KERNELS,
        _Rows: lambda self, op, fp, tables: lambda charges: op.batch,
    }


_DATES = [datetime.date(2001, 5, 21) + datetime.timedelta(days=d)
          for d in range(3)]
#: One strategy per kind of key column: one type, the same with NULLs,
#: and mixes (NoneFirst orders those by type name: bool < date < float
#: < int < str).
_SORT_COLUMNS = [
    st.integers(-3, 3),
    st.text(alphabet="ab", max_size=2),
    st.sampled_from([-1.5, -0.0, 0.0, 2.25, 1e300]),
    st.sampled_from(_DATES),
    st.none() | st.integers(-3, 3),
    st.none() | st.text(alphabet="ab", max_size=2),
    st.none(),
    st.integers(-3, 3) | st.text(alphabet="ab", max_size=2) | st.booleans(),
    st.none() | st.integers(-2, 2) | st.booleans()
    | st.sampled_from([0.5, 1.0]) | st.sampled_from(_DATES),
]


@st.composite
def _sort_cases(draw):
    """``(rows, arity, key positions)``: up to 40 rows of 1-12 key candidates,
    drawn from few values so duplicates are common, plus a row id last
    (never a key) that shows where ties went."""
    kinds = draw(st.lists(st.sampled_from(_SORT_COLUMNS),
                          min_size=1, max_size=12))
    rows = draw(st.lists(st.tuples(*kinds), max_size=40))
    rows = [row + (i,) for i, row in enumerate(rows)]
    keys = draw(st.permutations(range(len(kinds))))
    return rows, len(kinds) + 1, keys[:draw(st.integers(1, len(kinds)))]


class TestSortKernel:
    """The batch ``Sort`` kernel is the tuple engine's
    ``sorted(key=sort_key(...))``: NULLs first, mixed types by type name,
    ties in input order — over row-backed and column-backed input."""

    @given(case=_sort_cases(), column_backed=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_sorted_by_sort_key(self, tiny_db, case, column_backed):
        rows, arity, keys = case
        batch = (
            Batch.from_columns([[r[i] for r in rows] for i in range(arity)],
                               len(rows))
            if column_backed else Batch.from_rows(rows, arity)
        )
        leaf = _Rows(batch)
        plan = Sort(leaf, [f"c{k}" for k in keys])
        run = _LeafCompiler(QueryEngine(tiny_db), frozenset()).compile(plan)
        out = run(_Charges(CostModel(), None)).rows()
        assert out == sorted(rows, key=lambda r: sort_key([r[k] for k in keys]))


class TestSortPass:
    """One key column through the ``Sort`` kernel, against
    ``sorted(key=NoneFirst)`` on that column."""

    def _check(self, tiny_db, values):
        rows = [(value, i) for i, value in enumerate(values)]
        plan = Sort(_Rows(Batch.from_rows(rows, 2)), ["c0"])
        run = _LeafCompiler(QueryEngine(tiny_db), frozenset()).compile(plan)
        out = run(_Charges(CostModel(), None)).rows()
        assert out == sorted(rows, key=lambda row: NoneFirst(row[0]))

    @given(
        values=st.lists(
            st.one_of(st.none(), st.integers(-5, 5)), max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_nulls_first_and_stable(self, tiny_db, values):
        self._check(tiny_db, values)

    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.integers(-3, 3),
                st.text(max_size=2),
                st.booleans(),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mixed_type_columns_order_by_type_name(self, tiny_db, values):
        self._check(tiny_db, values)


# ---------------------------------------------------------------------------
# Per-stream identity over random partitions


def _drain(engine, plan, budget_ms):
    """``execute_iter`` drained: ``(rows so far, IterResult, timeout)``.
    The cursor charges startup when it is opened (in either mode), so
    that can time out too."""
    rows = []
    try:
        cursor = engine.execute_iter(plan, budget_ms=budget_ms)
    except TimeoutExceeded as exc:
        return rows, None, exc
    # Record what is charged from here on, the way ``execute`` does on a
    # cache miss (after ``startup``), so the logs can be compared.
    cursor._charges.log = []
    try:
        rows.extend(cursor)
    except TimeoutExceeded as exc:
        return rows, cursor, exc
    return rows, cursor, None


def _run_compiled(engine, plan, budget_ms):
    """``plan`` lowered and run the way ``execute`` runs a cache miss:
    ``(rows or None, charge log after startup, timeout)``."""
    charges = _Charges(engine.cost_model, budget_ms,
                       results=engine.node_cache)
    try:
        charges.charge("startup", engine.cost_model.startup_ms)
    except TimeoutExceeded as exc:
        return None, None, exc
    charges.log = []
    run = vector_ops.compile_plan(plan, engine)
    try:
        rows = run(charges).rows()
    except TimeoutExceeded as exc:
        return None, tuple(charges.log), exc
    return rows, tuple(charges.log), None


def _entry(entry):
    """A ``CacheEntry``'s fields, comparable (None when nothing stored)."""
    if entry is None:
        return None
    return entry.rows, entry.charge_log, entry.complete, entry.nbytes


class TestStreamIdentity:
    """``execute`` on a ``"batch"`` engine (the kernels), on a ``"tuple"``
    engine (the Volcano interpreter drained into a list) and a drained
    ``execute_iter()`` in both modes (the same compiled plan keeping
    nothing; the same interpreter, lazily) must agree on everything
    observable, with and without a budget."""

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        query=st.sampled_from(["q1", "q2"]),
        index=st.integers(min_value=0, max_value=10 ** 9),
        style=st.sampled_from([PlanStyle.OUTER_UNION, PlanStyle.OUTER_JOIN]),
        budget=st.sampled_from([None, 0.0, 0.3, 0.7, 0.999]),
    )
    # index -1 is the unified plan: one query whose branches share
    # sub-plans, the case the interpreter's per-execution memo exists for.
    @example("q1", -1, PlanStyle.OUTER_JOIN, None)
    @example("q1", -1, PlanStyle.OUTER_JOIN, 0.7)
    @example("q1", -1, PlanStyle.OUTER_UNION, None)
    @example("q1", -1, PlanStyle.OUTER_UNION, 0.3)
    @example("q2", -1, PlanStyle.OUTER_JOIN, None)
    @example("q2", -1, PlanStyle.OUTER_JOIN, 0.3)
    @example("q2", -1, PlanStyle.OUTER_UNION, None)
    @example("q2", -1, PlanStyle.OUTER_UNION, 0.999)
    def test_rows_timings_and_charge_log_match(
        self, tiny_db, q1_tree, q2_tree, query, index, style, budget,
    ):
        tree = {"q1": q1_tree, "q2": q2_tree}[query]
        partitions = list(enumerate_partitions(tree))
        partition = partitions[index % len(partitions)]
        if index == -1:
            assert partition == unified_partition(tree)
        generator = SqlGenerator(tree, tiny_db.schema, style=style)
        for spec in generator.streams_for_partition(partition):
            unbudgeted = QueryEngine(tiny_db, engine="tuple").execute(
                spec.plan
            )
            if index == -1:
                assert "rescan" in unbudgeted.breakdown
            budget_ms = None if budget is None else (
                unbudgeted.server_ms * budget
            )
            tuple_cache, batch_cache = PlanResultCache(), PlanResultCache()
            tuple_engine = QueryEngine(
                tiny_db, cache=tuple_cache, engine="tuple"
            )
            batch_engine = QueryEngine(
                tiny_db, cache=batch_cache, engine="batch"
            )
            key = tuple_engine.cache_key_for(spec.plan)
            drained = [
                _drain(QueryEngine(tiny_db, engine=mode), spec.plan, budget_ms)
                for mode in ENGINE_MODES
            ]
            compiled_rows, compiled_log, compiled_timeout = _run_compiled(
                QueryEngine(tiny_db), spec.plan, budget_ms
            )
            if budget_ms is not None:
                # Every path raises at the same charge ...
                with pytest.raises(TimeoutExceeded) as expected:
                    tuple_engine.execute(spec.plan, budget_ms=budget_ms)
                with pytest.raises(TimeoutExceeded) as actual:
                    batch_engine.execute(spec.plan, budget_ms=budget_ms)
                timeouts = [actual.value, compiled_timeout] + [
                    t for _, _, t in drained
                ]
                for timeout in timeouts:
                    assert timeout.budget_ms == expected.value.budget_ms
                    assert timeout.elapsed_ms == expected.value.elapsed_ms
                # ... and stores the same incomplete entry (none at all
                # when the startup charge alone is over budget: that is
                # charged before the cache is consulted, and before a
                # cursor exists).
                stored = _entry(tuple_cache.peek(key))
                assert _entry(batch_cache.peek(key)) == stored
                assert compiled_log == (stored and stored[1])
                for iter_rows, cursor, _ in drained:
                    assert (stored is None) == (cursor is None)
                    if cursor is None:
                        continue
                    assert not cursor.exhausted
                    assert cursor.server_ms == expected.value.elapsed_ms
                    rows, charge_log, complete, _ = stored
                    assert rows is None and not complete
                    assert tuple(cursor._charges.log) == charge_log
                    assert list(cursor.breakdown) == list(dict.fromkeys(
                        ["startup"] + [label for label, _, _ in charge_log]
                    ))
                    assert iter_rows == unbudgeted.rows[:len(iter_rows)]
                continue
            expected = tuple_engine.execute(spec.plan)
            actual = batch_engine.execute(spec.plan)
            charge_log = tuple_cache.peek(key).charge_log
            assert compiled_timeout is None
            assert compiled_rows == expected.rows
            assert compiled_log == charge_log
            for iter_rows, cursor, iter_timeout in drained:
                assert iter_timeout is None and cursor.exhausted
                assert iter_rows == expected.rows
                assert tuple(cursor._charges.log) == charge_log
                assert cursor.server_ms == expected.server_ms
                assert cursor.rows_examined == expected.rows_examined
                assert cursor.breakdown == expected.breakdown
                assert list(cursor.breakdown) == list(expected.breakdown)
            assert actual.rows == expected.rows
            assert actual.server_ms == expected.server_ms
            assert actual.rows_examined == expected.rows_examined
            assert actual.breakdown == expected.breakdown
            assert list(actual.breakdown) == list(expected.breakdown)
            # The full ordered charge log — every (label, ms, rows)
            # triple — is recorded in the cache entry on the miss.
            assert _entry(batch_cache.peek(key)) == _entry(
                tuple_cache.peek(key)
            )
            assert tuple_cache.peek(key).complete
            # Re-execution serves the node-result cache: still identical.
            again = batch_engine.execute(spec.plan)
            assert again.rows == expected.rows
            assert again.server_ms == expected.server_ms

    def test_identity_above_4096_rows(self, tiny_db):
        """No ``tiny_db`` view plan has an intermediate of 4,096 rows —
        where the kernels once cut their input into chunks — so one that
        does: an 8,000-row cross product, projected (column-major, and
        read twice: the memo), filtered (the transpose), united,
        deduplicated and sorted."""
        tables = [Scan(tiny_db.schema.table(name), alias) for name, alias
                  in (("LineItem", "l"), ("Orders", "o"), ("Region", "r"))]
        crossed = InnerJoin(InnerJoin(tables[0], tables[1], []), tables[2], [])
        projected = Project(crossed, [
            ProjectItem(ColumnRef("l.orderkey"), "lk"),
            ProjectItem(ColumnRef("o.orderkey"), "ok"),
            ProjectItem(ColumnRef("r.name"), "region"),
            ProjectItem(Literal(1), "one"),
        ])
        halves = [
            Filter(projected, Comparison(op, ColumnRef("lk"), ColumnRef("ok")))
            for op in ("<", ">")
        ]
        plan = Sort(Distinct(OuterUnion(halves)), ["region", "lk", "ok"])

        caches = {mode: PlanResultCache() for mode in ENGINE_MODES}
        results = {
            mode: QueryEngine(tiny_db, cache=caches[mode], engine=mode)
            .execute(plan) for mode in ENGINE_MODES
        }
        expected = results["tuple"]
        key = QueryEngine(tiny_db).cache_key_for(plan)
        charge_log = caches["tuple"].peek(key).charge_log
        charged = {label: rows for label, _, rows in charge_log}
        assert charged["project"] == charged["rescan"] == 8000
        assert 4096 < charged["union"] == charged["distinct"] < 8000
        assert _entry(caches["batch"].peek(key)) == _entry(
            caches["tuple"].peek(key))
        assert results["batch"].server_ms == expected.server_ms
        for mode in ENGINE_MODES:
            rows, cursor, timeout = _drain(
                QueryEngine(tiny_db, engine=mode), plan, None)
            assert timeout is None and cursor.exhausted
            assert rows == expected.rows
            assert tuple(cursor._charges.log) == charge_log
            assert cursor.server_ms == expected.server_ms


# ---------------------------------------------------------------------------
# Cursors: one opening protocol, nothing kept, nothing mutated


@pytest.fixture(scope="module")
def unified_plan(request):
    """Q1's unified outer-join plan: one query whose branches share
    sub-plans, so a run fills the per-execution memo."""
    tiny_db = request.getfixturevalue("tiny_db")
    tree = request.getfixturevalue("q1_tree")
    generator = SqlGenerator(tree, tiny_db.schema, style=PlanStyle.OUTER_JOIN)
    [spec] = generator.streams_for_partition(unified_partition(tree))
    return spec.plan


@pytest.mark.parametrize("mode", ENGINE_MODES)
class TestCursor:
    def test_opening_charges_startup_and_counts_the_lookup(
        self, tiny_db, unified_plan, mode
    ):
        """Both modes charge ``startup`` and count the plan-cache lookup
        when the cursor is opened — so a budget below ``startup_ms``
        raises from ``execute_iter``, not from ``next()``."""
        cache = PlanResultCache()
        engine = QueryEngine(tiny_db, cache=cache, engine=mode)
        metrics = MetricsRegistry()
        with pytest.raises(TimeoutExceeded) as startup:
            engine.execute_iter(
                unified_plan, metrics=metrics,
                budget_ms=engine.cost_model.startup_ms / 2,
            )
        assert startup.value.elapsed_ms == engine.cost_model.startup_ms
        assert metrics.counter("plan_cache.misses") == 0

        cursor = engine.execute_iter(unified_plan, metrics=metrics)
        assert list(cursor.breakdown) == ["startup"]
        assert metrics.counter("plan_cache.misses") == 1
        cursor.close()

        executed = engine.execute(unified_plan, metrics=metrics)
        assert metrics.counter("plan_cache.misses") == 2
        replay = engine.execute_iter(unified_plan, metrics=metrics)
        assert metrics.counter("plan_cache.hits") == 1
        assert list(replay.breakdown) == ["startup"]
        assert list(replay) == executed.rows
        assert replay.breakdown == executed.breakdown

    def test_keeps_nothing(self, tiny_db, unified_plan, mode):
        """A cursor run stores no plan-cache entry, neither reads nor
        stores a node result, and its shared-sub-plan memo is gone once the
        rows are — whether the cursor was exhausted or closed mid-stream."""
        cache = PlanResultCache()
        engine = QueryEngine(tiny_db, cache=cache, engine=mode)
        drained = engine.execute_iter(unified_plan)
        rows = list(drained)
        assert drained.exhausted and "rescan" in drained.breakdown
        abandoned = engine.execute_iter(unified_plan)
        assert next(iter(abandoned)) == rows[0]
        abandoned.close()
        assert not abandoned.exhausted and list(abandoned) == []
        for cursor in (drained, abandoned):
            assert cursor._charges.memo == {}
        assert len(cache) == 0 and cache.stats().stores == 0
        node_stats = engine.node_cache.stats()
        assert len(engine.node_cache) == 0
        assert (node_stats.stores, node_stats.hits, node_stats.misses) == (
            0, 0, 0
        )

    @pytest.mark.parametrize("cached", [False, True])
    def test_drain_never_mutates_a_cached_batch(
        self, tiny_db, unified_plan, mode, cached
    ):
        """``execute`` → cursor → ``execute`` on one engine: the cursor
        runs beside the node results ``execute`` cached (with ``cached`` it
        replays the stored plan-cache entry) and hands its rows out
        destructively; what ``execute`` returned and cached is untouched."""
        engine = QueryEngine(
            tiny_db, cache=PlanResultCache() if cached else None, engine=mode
        )
        before = engine.execute(unified_plan)
        snapshot = list(before.rows)
        cursor = engine.execute_iter(unified_plan)
        assert list(cursor) == snapshot
        after = engine.execute(unified_plan)
        assert before.rows == snapshot == after.rows
        assert cursor.server_ms == before.server_ms == after.server_ms


# ---------------------------------------------------------------------------
# End-to-end identity: XML bytes and report figures


class TestEndToEndIdentity:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(index=st.integers(min_value=0, max_value=10 ** 9))
    def test_random_partition_xml_identity(
        self, tiny_db, tiny_estimator, q1_partitions, index
    ):
        partition = q1_partitions[index % len(q1_partitions)]
        tuple_result = fresh_view(
            tiny_db, tiny_estimator, engine="tuple"
        ).materialize(partition)
        batch_result = fresh_view(tiny_db, tiny_estimator).materialize(
            partition
        )
        assert batch_result.xml == tuple_result.xml
        assert (
            batch_result.report.query_ms == tuple_result.report.query_ms
        )
        assert (
            batch_result.report.transfer_ms
            == tuple_result.report.transfer_ms
        )
        assert (
            [s.server_ms for s in batch_result.report.streams]
            == [s.server_ms for s in tuple_result.report.streams]
        )

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(workers=st.sampled_from([2, 4]))
    def test_dispatch_width_identity(
        self, tiny_db, tiny_estimator, baseline, workers
    ):
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize("fully-partitioned", workers=workers)
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        assert result.report.transfer_ms == baseline.report.transfer_ms

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=30))
    def test_faulted_replicated_dispatch_identity(
        self, tiny_db, tiny_estimator, baseline, seed
    ):
        """Faults + replicas + retries around the batch engine leave the
        document and figures identical to the tuple fault-free run.  Retry
        exhaustion is the retry machinery's own terminal outcome, not the
        identity property, so such draws are rejected."""
        view = fresh_view(tiny_db, tiny_estimator)
        try:
            result = view.materialize(
                "fully-partitioned", replicas=2, workers=2,
                faults=FaultPolicy(seed=seed, error_rate=0.3),
                retry=RetryPolicy(max_attempts=6),
            )
        except TransientConnectionError:
            assume(False)
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        assert result.report.transfer_ms == baseline.report.transfer_ms


# ---------------------------------------------------------------------------
# Mode plumbing and validation


class TestModePlumbing:
    def test_engine_modes_constant(self):
        assert set(ENGINE_MODES) == {"batch", "tuple"}

    def test_invalid_mode_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="engine mode"):
            QueryEngine(tiny_db, engine="vectorized")
        with pytest.raises(ValueError, match="engine mode"):
            Connection(tiny_db, CostModel(), engine="columnar")
        # The mode is the engine's, not a call's.
        plan = Scan(tiny_db.schema.table("Region"), "r")
        with pytest.raises(TypeError):
            QueryEngine(tiny_db).execute(plan, engine="tuple")

    def test_connection_forwards_defaults(self, tiny_db):
        connection = Connection(tiny_db, CostModel(), engine="tuple")
        assert connection.engine.mode == "tuple"
        assert Connection(tiny_db, CostModel()).engine.mode == "batch"

    def test_execution_options_carry_engine_knobs(self):
        """They carry none: the mode is a connection's, and the kernels
        have no chunk size."""
        for knob in ({"engine": "batch"}, {"batch_size": 128}):
            with pytest.raises(TypeError):
                ExecutionOptions(**knob)
            with pytest.raises(TypeError):
                resolve_options(None, knob)

    def test_cli_parses_engine_flags(self):
        """There are none to parse: ``--engine`` went with the option."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["materialize", "--engine", "tuple"])
        assert "engine" not in vars(
            build_parser().parse_args(["materialize"])
        )

    @pytest.mark.parametrize("writer", ENGINE_MODES)
    @pytest.mark.parametrize("budget", [None, 0.6])
    def test_modes_share_one_plan_cache(self, tiny_db, unified_plan, writer,
                                        budget):
        """Two engines of different modes over one ``PlanResultCache``: an
        entry written by either — complete, or the incomplete one a budget
        overrun leaves — replays bit-identically on the other (rows,
        ``server_ms``, breakdown order, timeout charge)."""
        reader = next(mode for mode in ENGINE_MODES if mode != writer)
        cache = PlanResultCache()
        engines = {
            mode: QueryEngine(tiny_db, cache=cache, engine=mode)
            for mode in ENGINE_MODES
        }
        evaluated = {mode: 0 for mode in ENGINE_MODES}
        for mode, engine in engines.items():
            def counted(plan, charges, mode=mode, run=engine._evaluate):
                evaluated[mode] += 1
                return run(plan, charges)
            engine._evaluate = counted
        budget_ms = budget and budget * QueryEngine(tiny_db).execute(
            unified_plan
        ).server_ms
        if budget_ms is None:
            written = engines[writer].execute(unified_plan)
            replayed = engines[reader].execute(unified_plan)
            assert replayed.rows == written.rows
            assert replayed.server_ms == written.server_ms
            assert replayed.breakdown == written.breakdown
            assert list(replayed.breakdown) == list(written.breakdown)
        else:
            with pytest.raises(TimeoutExceeded) as written:
                engines[writer].execute(unified_plan, budget_ms=budget_ms)
            with pytest.raises(TimeoutExceeded) as replayed:
                engines[reader].execute(unified_plan, budget_ms=budget_ms)
            assert replayed.value.elapsed_ms == written.value.elapsed_ms
        assert evaluated == {writer: 1, reader: 0}
        assert len(cache) == 1

    def test_node_cache_clears_on_database_mutation(self, tiny_db):
        plan = Scan(tiny_db.schema.table("Region"), "r")
        engine = QueryEngine(tiny_db, engine="batch")
        cache = engine.node_cache
        before = engine.execute(plan)
        assert cache and cache.stats().current_bytes == 0  # seen, not kept
        engine.execute(plan)
        assert cache.get(plan.fingerprint()).length == len(before.rows)
        tiny_db.insert("Region", 999999, "zz-new-region")
        after = engine.execute(plan)
        reference = QueryEngine(tiny_db, engine="tuple").execute(plan)
        assert after.rows == reference.rows
        assert len(after.rows) == len(before.rows) + 1
        # The write retired the kept scan; the run that saw it computed
        # the sub-plan for the second time or later, so kept it at once.
        assert cache.stats().invalidations == 1
        assert cache.get(plan.fingerprint()).length == len(after.rows)
