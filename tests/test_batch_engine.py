"""Batch engine (repro.relational.batch / pipeline): the identity twin.

The vectorized engine's contract is *bit-identity* with the tuple
interpreter: same rows, same simulated charges in the same order, same
cache entries — so the two modes are interchangeable under every feature
that composes with execution.  Tested here:

* **batches** — the row-major view of a column-major batch and the
  column view of a row-major one, at any arity (including zero);
* **per-stream identity** (hypothesis) — over random sweep partitions and
  both plan styles, every stream's rows, simulated timings, breakdown,
  and full ordered charge log match the tuple engine's, and the lowered
  plan run bare (``pipeline.lower``) matches them too;
* **end-to-end identity** (hypothesis) — materialized XML bytes and
  report figures match at every dispatch width and under injected
  faults on a replica pool;
* **sort semantics** (hypothesis) — the batch engine's sort, told each
  key column's value types, reproduces
  :class:`~repro.common.ordering.NoneFirst` exactly, for NULLs,
  duplicates and pathological mixed-type columns, whether it builds a
  composite key or sorts rows that are their own key;
* **sort facts** — on random lowered plans (mixed-type base columns,
  NULL literals, outer-join padding, outer-union slots a branch lacks)
  rows, charge log and plan-cache entry equal the tuple engine's; on the
  paper's plans the derived types hold every scanned type and the number
  of sorts that sort rows as they are is pinned;
* **mode plumbing** — the mode is fixed at construction
  (``QueryEngine(engine=…)`` / ``Connection(engine=…)``), validated there,
  and engines of different modes replay each other's cache entries;
* **pipelines, differentially** (hypothesis) — plans the view generator
  never builds, over tables with NULL join keys: rows, the charge log and
  the ``TimeoutExceeded`` charge through ``execute`` and ``execute_iter``,
  plus hand-built cases (NULL probe keys from outer-join padding, NULL
  operands of ``=`` and ``!=`` filters, literals that are equal but not
  the same value, a multi-column key with one NULL, tagged multi-branch
  outer joins, a shared prefix that cuts a chain, a budget that runs out
  inside a pipeline, node-cache hits at breakers, concurrent first runs);
* **table indexes** — no write path (insert, update, delete,
  ``restore``, a restart from the store, ``Session.mutate``) leaves a
  join probing an index, or a sort reading value types, of the old rows;
* **sort width** — sampled from columns, the row form's integer sum.
"""

import datetime
import math
import operator
import sys
import threading

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st,
)

from repro.cli import build_parser
from repro.common.errors import (
    ExecutionError, QueryError, TimeoutExceeded, TransientConnectionError,
)
from repro.common import ordering
from repro.common.ordering import NoneFirst, sort_key
from repro.core.options import ExecutionOptions, resolve_options
from repro.core.partition import enumerate_partitions, unified_partition
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.bench import sweep as sweep_module
from repro.bench.queries import QUERY_1, QUERY_2
from repro.obs import ObsOptions
from repro.obs.metrics import MetricsRegistry
from repro.relational import pipeline
from repro.relational.batch import Batch
from repro.relational.cache import NodeResultCache, PlanResultCache
from repro.relational.codegen import CODE
from repro.relational.connection import Connection
from repro.relational.engine import (
    ENGINE_MODES, CostModel, QueryEngine, _Charges,
)
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience
from repro.relational.algebra import (
    And, ColumnInfo, ColumnRef, Comparison, Distinct, Filter, InnerJoin,
    JoinBranch, LeftOuterJoin, Literal, Operator, OuterUnion, Project,
    ProjectItem, Scan, Sort,
)
from repro.relational.database import Database
from repro.relational.schema import Column, DatabaseSchema, TableSchema
from repro.relational.store import Store
from repro.relational.types import (
    SqlType, average_row_width,
)
from repro.session import Session
from repro.tpch.generator import TpchGenerator, TpchScale
from conftest import simple_outer_join


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
                assert list(by_rows.columns()[i]) == by_cols.columns()[i] == [
                    r[i] for r in rows
                ]
            assert by_rows.length == by_cols.length == 7
            assert by_cols.arity == arity

    def test_zero_arity_and_empty(self):
        empty = Batch.from_rows([], 2)
        assert empty.rows() == [] and empty.length == 0
        assert Batch.from_columns([[], []], 0).rows() == []
        # Zero-arity rows carry no columns; the length lives on the Batch.
        assert Batch.from_rows([(), (), ()], 0).rows() == [(), (), ()]
        zero = Batch.from_columns([], 3)
        assert zero.arity == 0 and zero.length == 3
        assert zero.rows() == [(), (), ()]


# ---------------------------------------------------------------------------
# Sort semantics


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


def _reference_sort(rows, keys):
    """The tuple engine's ``ORDER BY``: a stable sort on ``sort_key``."""
    return sorted(rows, key=lambda r: sort_key([r[k] for k in keys]))


def _null_meets_value(before, after, keys):
    """Whether the first key position where two rows differ holds a NULL
    in one of them."""
    for k in keys:
        if NoneFirst(before[k]) != NoneFirst(after[k]):
            return before[k] is None or after[k] is None
    return False


def _arranged(draw, rows, keys):
    """``rows`` as drawn, or in the reference order, or that order with
    one adjacent pair swapped: any pair, the last, or one whose first
    differing key position has a NULL on one side (so the NULL comes
    after a value).  A swapped pair that ties on the keys is still in
    order, and differs only in the columns that are not keys."""
    shape = draw(st.sampled_from(["drawn", "ordered", "swap", "last", "null"]))
    if shape == "drawn":
        return rows
    ordered = _reference_sort(rows, keys)
    pairs = list(range(len(ordered) - 1))
    if shape == "last":
        pairs = pairs[-1:]
    elif shape == "null":
        pairs = [i for i in pairs
                 if _null_meets_value(ordered[i], ordered[i + 1], keys)]
    if shape != "ordered" and pairs:
        i = draw(st.sampled_from(pairs))
        ordered[i], ordered[i + 1] = ordered[i + 1], ordered[i]
    return ordered


@st.composite
def _sort_cases(draw):
    """``(rows, arity, key positions)``: up to 40 rows of 1-12 key candidates,
    drawn from few values so duplicates are common, plus a row id last
    (never a key) that shows where ties went; as drawn, or already in key
    order, or one swap away from it."""
    kinds = draw(st.lists(st.sampled_from(_SORT_COLUMNS),
                          min_size=1, max_size=12))
    rows = draw(st.lists(st.tuples(*kinds), max_size=40))
    rows = [row + (i,) for i, row in enumerate(rows)]
    keys = draw(st.permutations(range(len(kinds))))
    keys = keys[:draw(st.integers(1, len(kinds)))]
    return _arranged(draw, rows, keys), len(kinds) + 1, keys


def _scanned_types(rows, keys):
    """The value types each key column of ``rows`` holds, found by
    scanning: what the sort is told instead of scanning."""
    return [frozenset(type(row[k]) for row in rows) for k in keys]


def _assert_sorts_as_reference(rows, arity, keys, kinds, constant=(),
                               column_backed=False):
    """``sort_rows`` returns the reference order, ``repr``-equal (``0.0``
    and ``-0.0`` where they were), in a new list, and sorts only what it
    must: input already in key order is checked and copied, unless it
    has two rows or more and a key column may mix value types; rows that
    are their own key are sorted as they are and counted as neither."""
    batch = (
        Batch.from_columns([[r[i] for r in rows] for i in range(arity)],
                           len(rows))
        if column_backed else Batch.from_rows(rows, arity)
    )
    metrics = MetricsRegistry()
    out = pipeline.sort_rows(batch, list(keys), kinds, constant, metrics)
    expected = _reference_sort(rows, keys)
    assert repr(out) == repr(expected)
    assert out is not batch.rows()
    counters = metrics.snapshot()["counters"]
    if ordering.rows_are_keys(arity, keys, kinds, constant):
        assert counters == {}
        return
    in_order = all(map(operator.is_, rows, expected))
    mixed = any(len(types - {type(None)}) > 1
                for k, types in zip(keys, kinds) if k not in constant)
    presorted = len(rows) < 2 or (in_order and not mixed)
    assert counters == {"sort.presorted" if presorted else "sort.resorted": 1}


class TestSortKernel:
    """The batch ``Sort`` (:func:`pipeline.sort_rows`) is the tuple
    engine's ``sorted(key=sort_key(...))``: NULLs first, mixed types by
    type name, ties in input order — over row-backed and column-backed
    input, told each key column's value types exactly or as a superset."""

    @given(case=_sort_cases(), column_backed=st.booleans(),
           widen=st.sets(st.sampled_from([type(None), int, str])))
    @settings(max_examples=300, deadline=None)
    @example(([(-0.0, 0), (0.0, 1), (-0.0, 2)], 2, [0]), False, set())
    @example(([(None, 1, 0), (1, None, 1), (1, 2, 2)], 3, [0, 1]),
             True, set())
    @example(([(1, None, 0), (None, 1, 1)], 3, [0, 1]), False, set())
    @example(([(1, None, 0), (1, 2, 1), (1, None, 2)], 3, [0, 1]),
             False, set())
    def test_equals_sorted_by_sort_key(self, case, column_backed, widen):
        rows, arity, keys = case
        kinds = [types | widen for types in _scanned_types(rows, keys)]
        _assert_sorts_as_reference(rows, arity, keys, kinds,
                                   column_backed=column_backed)


class _Name(str):
    """A ``str`` subclass: its own type name, so ``NoneFirst`` orders it
    apart from plain strings."""


_DATETIMES = [datetime.datetime(2001, 5, 21, 12), datetime.datetime(2001, 5, 22)]
#: Key columns as the tables and plans hold them: one type, a type with
#: NULLs, DECIMAL's int/float mix, DATE's date/datetime mix, a ``str``
#: subclass beside ``str``, NULL only.
_FACT_COLUMNS = [
    st.integers(-2, 2),
    st.sampled_from([-1.5, -0.0, 0.0, 2.25]),
    st.text(alphabet="ab", max_size=2).map(_Name),
    st.sampled_from(_DATES),
    st.none() | st.integers(-2, 2),
    st.integers(-2, 2) | st.sampled_from([-0.0, 0.0, 1.0, 0.5]),
    st.sampled_from(_DATES + _DATETIMES),
    st.text(alphabet="ab", max_size=2)
    | st.text(alphabet="ab", max_size=2).map(_Name),
    st.none(),
]


@st.composite
def _whole_row_cases(draw):
    """``(rows, arity, key positions, constant positions)``: rows whose
    sort keys are mostly the whole row — in order, with the constant
    columns (one value throughout, as a projected literal is) anywhere
    among them, or some columns in another order; the rows as drawn, or
    in key order, or one swap away from it."""
    kinds = draw(st.lists(st.sampled_from(_FACT_COLUMNS),
                          min_size=1, max_size=6))
    constant = draw(st.sets(st.integers(0, len(kinds) - 1)))
    values = [draw(kind) for kind in kinds]
    row = st.tuples(*[st.just(values[p]) if p in constant else kind
                      for p, kind in enumerate(kinds)])
    rows = draw(st.lists(row, max_size=30))
    varying = [p for p in range(len(kinds)) if p not in constant]
    keys = list(varying)
    for p in sorted(constant):
        keys.insert(draw(st.integers(0, len(keys))), p)
    if draw(st.booleans()):
        keys = draw(st.permutations(range(len(kinds))))
        keys = keys[:draw(st.integers(1, len(kinds)))]
    return (_arranged(draw, rows, list(keys)), len(kinds), list(keys),
            tuple(sorted(constant)))


class TestSortFacts:
    """The sort told its key columns' value types (as the plan and the
    tables know them) instead of scanning: the rows themselves are sorted
    where they are their own key, and the result is still the tuple
    engine's ``sorted(key=sort_key(...))``, down to which of two equal
    values (``0.0``, ``-0.0``) comes first."""

    @given(case=_whole_row_cases(), column_backed=st.booleans(),
           widen=st.sets(st.sampled_from([type(None), int, float])))
    @settings(max_examples=400, deadline=None)
    @example(([(0.5, 1), (-0.0, 1), (0.0, 0), (-0.0, 0)], 2, [0, 1], ()),
             False, set())
    @example(([(-0.0, 1), (0.0, 0), (-0.0, 2), (0.0, 2)], 2, [0], ()),
             True, set())
    @example(([(0, 0), (0.5, 1)], 2, [0], ()), False, set())
    @example(([("a",), (_Name("b"),)], 1, [0], ()), True, set())
    def test_equals_sorted_by_sort_key(self, case, column_backed, widen):
        rows, arity, keys, constant = case
        kinds = [types | widen for types in _scanned_types(rows, keys)]
        _assert_sorts_as_reference(rows, arity, keys, kinds, constant,
                                   column_backed)

    def test_whole_rows_of_one_type_sort_as_they_are(self):
        rows = [(1, _Name("b"), 2.0), (1, _Name("a"), 3.0), (1, _Name("a"), 1.0)]
        kinds = _scanned_types(rows, range(3))
        assert ordering.rows_are_keys(3, [0, 1, 2], kinds)
        assert ordering.rows_are_keys(3, [1, 0, 2], kinds, constant=(0,))
        assert not ordering.rows_are_keys(3, [1, 0, 2], kinds)
        assert not ordering.rows_are_keys(3, [0, 1], kinds[:2])
        assert not ordering.rows_are_keys(
            3, [0, 1, 2], [kinds[0], kinds[1], {float, type(None)}])
        assert pipeline.sort_rows(Batch.from_rows(rows, 3), [0, 1, 2],
                                  kinds) == sorted(rows)


class TestSortPass:
    """One key column through the ``Sort``, against
    ``sorted(key=NoneFirst)`` on that column."""

    def _check(self, tiny_db, values):
        rows = [(value, i) for i, value in enumerate(values)]
        out = pipeline.sort_rows(Batch.from_rows(rows, 2), [0],
                                 _scanned_types(rows, [0]))
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
    """``plan`` lowered and run the way ``execute`` runs a cache miss in
    a sweep, with a node cache (the engine's ``node_cache``): ``(rows or
    None, charge log after startup, timeout)``."""
    charges = _Charges(engine.cost_model, budget_ms,
                       results=engine.node_cache)
    try:
        charges.charge("startup", engine.cost_model.startup_ms)
    except TimeoutExceeded as exc:
        return None, None, exc
    charges.log = []
    program = pipeline.lower(plan)
    try:
        rows = program.run(engine.database, charges).rows()
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
            ProjectItem(Literal(1, SqlType.INTEGER), "one"),
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
    def test_opening_charges_startup(self, tiny_db, unified_plan, mode):
        """Both modes charge ``startup`` when the cursor is opened — so a
        budget below ``startup_ms`` raises from ``execute_iter``, not from
        ``next()`` — and a cursor on a plan the cache holds evaluates it
        again, to the eager run's rows and charges."""
        cache = PlanResultCache()
        engine = QueryEngine(tiny_db, cache=cache, engine=mode)
        metrics = MetricsRegistry()
        with pytest.raises(TimeoutExceeded) as startup:
            engine.execute_iter(
                unified_plan, metrics=metrics,
                budget_ms=engine.cost_model.startup_ms / 2,
            )
        assert startup.value.elapsed_ms == engine.cost_model.startup_ms

        cursor = engine.execute_iter(unified_plan, metrics=metrics)
        assert list(cursor.breakdown) == ["startup"]
        cursor.close()

        executed = engine.execute(unified_plan, metrics=metrics)
        again = engine.execute_iter(unified_plan, metrics=metrics)
        assert list(again.breakdown) == ["startup"]
        assert list(again) == executed.rows
        assert again.breakdown == executed.breakdown
        assert metrics.counter("plan_cache.hits") == 0

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
                "fully-partitioned", workers=2, resilience=Resilience(
                    replicas=2, retry=RetryPolicy(max_attempts=6),
                    faults=FaultPolicy(seed=seed, error_rate=0.3),
                ),
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


# ---------------------------------------------------------------------------
# Differential: generated pipelines against the interpreter, on plans the
# view generator never builds


_NULLS_SCHEMA = DatabaseSchema([
    TableSchema("A", [
        Column("id", SqlType.INTEGER), Column("k", SqlType.INTEGER, True),
        Column("j", SqlType.INTEGER, True), Column("s", SqlType.VARCHAR, True),
        Column("d", SqlType.DECIMAL, True),
    ], key=["id"]),
    TableSchema("B", [
        Column("id", SqlType.INTEGER), Column("k", SqlType.INTEGER, True),
        Column("j", SqlType.INTEGER, True), Column("s", SqlType.VARCHAR, True),
    ], key=["id"]),
    TableSchema("C", [
        Column("id", SqlType.INTEGER), Column("k", SqlType.INTEGER, True),
        Column("t", SqlType.INTEGER, True),
    ], key=["id"]),
])


def _nulls_db():
    """Three small tables whose join columns hold NULLs and duplicates."""
    db = Database(_NULLS_SCHEMA)
    ks, js = [0, 1, None, 2, 1, None, 0], [1, None, 0, 1, None, 2, 0]
    strings, decimals = ["a", "", None, "bb", "a", None, "c"], [
        0.5, None, 2.0, 1.5, None, 0.25, 3.0]
    for i in range(7):
        db.insert("A", i, ks[i], js[i], strings[i], decimals[i])
        db.insert("B", i, ks[(i + 2) % 7], js[(i + 3) % 7], strings[i])
        db.insert("C", i, ks[(i + 4) % 7], js[(i + 1) % 7])
    return db


@pytest.fixture(scope="module")
def nulls_db():
    return _nulls_db()


class _Plans:
    """Draws plans over ``_NULLS_SCHEMA`` out of every operator: chains of
    filters, projections (constant columns too), inner joins on base
    tables and on derived tables, tagged multi-branch outer joins, outer
    unions, distincts and sub-plans used twice (the memo).  A join is left
    out where the product of its inputs' row bounds could pass ``CAP``."""

    CAP = 3000
    SCHEMA = _NULLS_SCHEMA

    def __init__(self, draw):
        self.draw = draw
        self.n = 0
        self.pool = []
        self.bounds = {}     # id(op) -> the most rows it can produce

    def bounded(self, op, rows):
        self.bounds[id(op)] = rows
        return op

    def bound(self, op):
        return self.bounds[id(op)]

    def name(self, prefix):
        self.n += 1
        return f"{prefix}{self.n}"

    def ints(self, op):
        return [c.name for c in op.columns() if c.sql_type is SqlType.INTEGER]

    def pick(self, values):
        return self.draw(st.sampled_from(values))

    def scan(self):
        table = self.pick(["A", "B", "C"])
        return self.bounded(Scan(self.SCHEMA.table(table), self.name("t")),
                            7)

    def renamed(self, op):
        """``op`` again under new column names: one fingerprint, two
        occurrences, and the copy can join the original."""
        prefix = self.name("r")
        return self.bounded(Project(op, [
            ProjectItem(ColumnRef(c), f"{prefix}.{c}")
            for c in op.column_names()]), self.bound(op))

    def relation(self, depth):
        kinds = ["scan", "scan", "reuse"] + (["distinct", "union"] * (depth > 0))
        kind = self.pick(kinds)
        if kind == "reuse" and self.pool:
            op = self.renamed(self.pick(self.pool))
        elif kind == "distinct":
            child = self.relation(depth - 1)
            op = self.bounded(Distinct(child), self.bound(child))
        elif kind == "union":
            inputs = [self.relation(depth - 1), self.relation(depth - 1)]
            op = self.bounded(
                OuterUnion(inputs, distinct=self.draw(st.booleans())),
                sum(map(self.bound, inputs)))
        else:
            op = self.scan()
        for _ in range(self.draw(st.integers(0, 4))):
            op = self.step(op, depth)
        self.pool.append(op)
        return op

    def step(self, op, depth):
        kind = self.pick(["filter", "project", "join", "join", "outer"])
        ints = self.ints(op)
        if kind == "filter" and ints:
            column = self.pick(ints)
            other = self.pick(ints + [None])
            operand = (ColumnRef(other) if other is not None else Literal(
                self.draw(st.none() | st.integers(0, 2)), SqlType.INTEGER))
            return self.bounded(Filter(op, Comparison(
                self.pick(["=", "!=", "<", ">="]), ColumnRef(column),
                operand)), self.bound(op))
        if kind == "project":
            names = self.draw(st.lists(st.sampled_from(op.column_names()),
                                       min_size=1, unique=True))
            items = [ProjectItem(ColumnRef(c), self.name("p")) for c in names]
            if self.draw(st.booleans()):
                value = self.draw(st.none() | st.integers(0, 2))
                items.append(ProjectItem(Literal(value, SqlType.INTEGER),
                                         self.name("c")))
            return self.bounded(Project(op, items), self.bound(op))
        if kind == "join" or depth == 0:
            right = (self.scan() if depth == 0 or self.draw(st.booleans())
                     else self.relation(depth - 1))
            rights = self.ints(right)
            rows = self.bound(op) * self.bound(right)
            if not (ints and rights) or rows > self.CAP:
                return op
            pairs = [(self.pick(ints), self.pick(rights))
                     for _ in range(self.draw(st.integers(0, 2)))]
            return self.bounded(InnerJoin(op, right, pairs), rows)
        return self.outer(op, depth)

    def outer(self, op, depth):
        """A left outer join on a derived table: untagged, or tagged with
        one branch per input of an outer union carrying the tag."""
        ints = self.ints(op)
        if not ints:
            return op
        if self.draw(st.booleans()):
            right = self.relation(depth - 1)
            rights = self.ints(right)
            rows = self.bound(op) * max(self.bound(right), 1)
            if not rights or rows > self.CAP:
                return op
            return self.bounded(simple_outer_join(
                op, right, [(self.pick(ints), self.pick(rights))]), rows)
        tag = self.name("tag")
        inputs, branches = [], []
        for value in range(self.draw(st.integers(1, 3))):
            branch = self.relation(depth - 1)
            rights = self.ints(branch)
            if not rights:
                continue
            inputs.append(self.bounded(Project(branch, [
                *(ProjectItem(ColumnRef(c), c) for c in branch.column_names()),
                ProjectItem(Literal(value, SqlType.INTEGER), tag),
            ]), self.bound(branch)))
            branches.append(JoinBranch(
                ((self.pick(ints), self.pick(rights)),), tag, value))
        rows = self.bound(op) * max(sum(map(self.bound, inputs)), 1)
        if not inputs or rows > self.CAP:
            return op
        return self.bounded(
            LeftOuterJoin(op, OuterUnion(inputs), branches), rows)


@st.composite
def _random_plans(draw):
    plans = _Plans(draw)
    plan = plans.relation(depth=2)
    if draw(st.booleans()):
        plan = Sort(plan, draw(st.lists(st.sampled_from(plan.column_names()),
                                        min_size=1, max_size=4, unique=True)))
    return plan


def _interpreted(db, plan):
    """The tuple engine's rows and charge log (after ``startup``)."""
    cache = PlanResultCache()
    engine = QueryEngine(db, cache=cache, engine="tuple")
    rows = engine.execute(plan).rows
    return rows, cache.peek(engine.cache_key_for(plan)).charge_log


def _cut_budget(charge_log, k):
    """A budget that the ``k``-th charge of ``charge_log`` overruns."""
    total = CostModel().startup_ms
    before = total
    for _, ms, _ in charge_log[:k + 1]:
        before, total = total, total + ms
    return (before + total) / 2


def _assert_twins(db, plan, budget_ms=None):
    """Rows, the charge log (triples, order) and the ``TimeoutExceeded``
    charge agree with the interpreter's through ``execute``, a lowered run
    that keeps results in a node cache (three times on one engine: the
    first run marks them, the second keeps them, the third is served
    them) and a drained ``execute_iter``."""
    expected_rows, expected_log = _interpreted(db, plan)
    caches = {mode: PlanResultCache() for mode in ENGINE_MODES}
    engines = {mode: QueryEngine(db, cache=caches[mode], engine=mode)
               for mode in ENGINE_MODES}
    key = engines["tuple"].cache_key_for(plan)
    if budget_ms is None:
        batch = QueryEngine(db)
        assert batch.execute(plan).rows == expected_rows
        for _ in range(3):
            assert _run_compiled(batch, plan, None)[:2] == (
                expected_rows, expected_log)
        engines["batch"].execute(plan)
        assert caches["batch"].peek(key).charge_log == expected_log
        rows, cursor, timeout = _drain(QueryEngine(db), plan, None)
        assert timeout is None and rows == expected_rows
        assert tuple(cursor._charges.log) == expected_log
        return
    raised = {}
    for mode, engine in engines.items():
        with pytest.raises(TimeoutExceeded) as caught:
            engine.execute(plan, budget_ms=budget_ms)
        raised[mode] = caught.value
    assert raised["batch"].elapsed_ms == raised["tuple"].elapsed_ms
    assert _entry(caches["batch"].peek(key)) == _entry(caches["tuple"].peek(key))
    for mode in ENGINE_MODES:
        rows, cursor, timeout = _drain(QueryEngine(db, engine=mode), plan,
                                       budget_ms)
        assert timeout.elapsed_ms == raised["tuple"].elapsed_ms
        assert tuple(cursor._charges.log) == caches["tuple"].peek(
            key).charge_log
    _, log, timeout = _run_compiled(QueryEngine(db), plan, budget_ms)
    assert timeout.elapsed_ms == raised["tuple"].elapsed_ms
    assert log == caches["tuple"].peek(key).charge_log


class TestPipelinesDifferential:
    """Hypothesis plans and hand-built cases where cutting a plan into
    pipelines could go wrong: NULL keys, a cut chain, the memo, the node
    cache, and a budget that runs out inside a pipeline's events."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(plan=_random_plans(), cut=st.none() | st.floats(0, 1))
    def test_random_plans(self, nulls_db, plan, cut):
        _, log = _interpreted(nulls_db, plan)
        budget_ms = None
        if cut is not None:
            steps = [k for k, (_, ms, _) in enumerate(log) if ms > 0]
            assume(steps)
            budget_ms = _cut_budget(log, steps[int(cut * (len(steps) - 1))])
        _assert_twins(nulls_db, plan, budget_ms)

    def scan(self, table, alias):
        return Scan(_NULLS_SCHEMA.table(table), alias)

    def test_null_probe_keys_from_outer_join_padding(self, nulls_db):
        """Unmatched rows of an outer join carry NULL in ``b.j``; the
        inner join above probes ``C``'s index with it, and ``C.t`` holds
        NULLs too: a NULL joins nothing."""
        padded = simple_outer_join(
            Filter(self.scan("A", "a"), Comparison("=", ColumnRef("a.k"),
                                                   Literal(2))),
            self.scan("B", "b"), [("a.id", "b.k")])
        plan = InnerJoin(padded, self.scan("C", "c"), [("b.j", "c.t")])
        engine = QueryEngine(nulls_db, engine="tuple")
        outer = engine.execute(padded).rows
        assert any(row[5] is None for row in outer)
        assert None in nulls_db.table("C").column_values("t")
        _assert_twins(nulls_db, plan)
        assert all(row[6] is not None for row in engine.execute(plan).rows)

    def test_nested_conjunction_compiles_flat(self, nulls_db, monkeypatch):
        """A nested conjunction compiles to the flat comparison chain it
        means: the generated loop returns the interpreter's rows and
        charge log without calling the predicate's ``evaluate``, which
        stays the interpreter's reference."""
        nested = And((Comparison(">=", ColumnRef("a.k"), Literal(0)), And(
            (Comparison("!=", ColumnRef("b.j"), Literal(1)), And(())))))
        plan = Filter(InnerJoin(self.scan("A", "a"), self.scan("B", "b"),
                                [("a.k", "b.k")]), nested)
        rows, log = _interpreted(nulls_db, plan)
        assert rows and [label for label, _, _ in log][-1] == "filter"
        _assert_twins(nulls_db, plan)

        def refuse(*_):
            raise AssertionError("the compiled loop called evaluate")

        monkeypatch.setattr(And, "evaluate", refuse)
        monkeypatch.setattr(Comparison, "evaluate", refuse)
        assert QueryEngine(nulls_db).execute(plan).rows == rows

    def test_an_operand_the_compiler_cannot_read_fails_at_lowering(self):
        """An operand that is neither a column nor a literal is refused
        when the plan is compiled — over an empty table too, where a
        per-row fallback would never have run."""
        plan = Filter(self.scan("A", "a"), Comparison(
            "=", ColumnRef("a.k"), Comparison("=", ColumnRef("a.j"),
                                              Literal(1))))
        empty = Database(_NULLS_SCHEMA)
        assert QueryEngine(empty, engine="tuple").execute(plan).rows == []
        with pytest.raises(QueryError, match="unsupported expression"):
            QueryEngine(empty).execute(plan)

    def test_null_operands_never_match(self, nulls_db):
        """``a.k = b.j`` where both are NULL, ``a.s != 'a'`` where
        ``a.s`` is NULL: false, as the reference evaluates the predicate's
        own definition — the generated NULL guards are checked against
        it, not against themselves."""
        joined = InnerJoin(self.scan("A", "a"), self.scan("B", "b"),
                           [("a.id", "b.id")])
        both_null = [row[0] for row in QueryEngine(
            nulls_db, engine="tuple").execute(joined).rows
            if row[1] is None and row[7] is None]
        assert both_null
        for predicate, column in (
                (Comparison("=", ColumnRef("a.k"), ColumnRef("b.j")), 1),
                (Comparison("!=", ColumnRef("a.s"), Literal("a")), 3)):
            plan = Filter(joined, predicate)
            rows, _ = _interpreted(nulls_db, plan)
            assert rows and all(row[column] is not None for row in rows)
            _assert_twins(nulls_db, plan)

    def test_literals_are_arguments_not_code(self, nulls_db):
        """Two plans that differ only in a projected literal share one
        compiled loop, yet each returns its own value: ``0.0 == -0.0``
        and the two hash alike, so code or constants keyed by value would
        hand one plan the other's sign."""
        CODE.discard_where(lambda key, _: key[0] == "pipeline")
        before = CODE.stats()
        signs = []
        for zero in (0.0, -0.0):
            plan = Project(self.scan("A", "a"), [
                ProjectItem(ColumnRef("a.id"), "id"),
                ProjectItem(Literal(zero, SqlType.DECIMAL), "zero")])
            rows = QueryEngine(nulls_db).execute(plan).rows
            signs.append({math.copysign(1.0, row[1]) for row in rows})
        after = CODE.stats()
        assert after.misses - before.misses == 1
        assert after.stores - before.stores == 1
        assert signs == [{1.0}, {-1.0}]

    def test_multi_column_keys_with_one_null_component(self, nulls_db):
        plan = Project(InnerJoin(
            self.scan("A", "a"), self.scan("B", "b"),
            [("a.k", "b.k"), ("a.j", "b.j")]),
            [ProjectItem(ColumnRef("a.id"), "a"),
             ProjectItem(ColumnRef("b.id"), "b")])
        rows, _ = _interpreted(nulls_db, plan)
        a_rows = nulls_db.table("A").rows
        assert any(None in row[1:3] and row[1:3] != (None, None)
                   for row in a_rows)
        assert rows and all(a_rows[a][1:3].count(None) == 0 for a, _ in rows)
        _assert_twins(nulls_db, plan)

    def test_tagged_multi_branch_outer_join(self, nulls_db):
        inputs = [
            Project(self.scan(table, alias), [
                ProjectItem(ColumnRef(f"{alias}.id"), f"{alias}.id"),
                ProjectItem(ColumnRef(f"{alias}.k"), f"{alias}.k"),
                ProjectItem(Literal(tag, SqlType.INTEGER), "btag"),
            ]) for tag, (table, alias) in enumerate((("B", "b"), ("C", "c")))
        ]
        plan = Sort(LeftOuterJoin(self.scan("A", "a"), OuterUnion(inputs), [
            JoinBranch((("a.k", "b.k"),), "btag", 0),
            JoinBranch((("a.j", "c.k"),), "btag", 1),
        ]), ["a.id", "btag", "b.id", "c.id"])
        _assert_twins(nulls_db, plan)
        _, log = _interpreted(nulls_db, plan)
        assert [label for label, _, _ in log].count("outer_join") == 1

    def shared_prefix_plan(self):
        """``a ⋈ b`` is read twice: as the start of a three-way chain
        (which it cuts: the chain's pipeline starts from the memo) and
        renamed, as the second input of a union."""
        prefix = InnerJoin(self.scan("A", "a"), self.scan("B", "b"),
                           [("a.k", "b.k")])
        chain = InnerJoin(prefix, self.scan("C", "c"), [("b.j", "c.t")])
        again = Project(prefix, [ProjectItem(ColumnRef(c), f"x.{c}")
                                 for c in prefix.column_names()])
        return prefix, chain, OuterUnion([chain, again])

    def test_shared_prefix_inside_a_chain(self, nulls_db):
        prefix, chain, plan = self.shared_prefix_plan()
        _, log = _interpreted(nulls_db, plan)
        assert "rescan" in [label for label, _, _ in log]
        _assert_twins(nulls_db, plan)
        # The chain alone fuses the prefix; both lowerings of the chain
        # share one node cache and still charge what they counted.
        engine = QueryEngine(nulls_db)
        for query in (chain, plan, chain, plan, chain):
            for _ in range(2):
                assert engine.execute(query).rows == _interpreted(
                    nulls_db, query)[0]
                assert _run_compiled(engine, query, None)[1] == _interpreted(
                    nulls_db, query)[1]

    def test_budget_overrun_inside_a_pipeline(self, nulls_db):
        """Overrun at each charge of a five-table chain: the scans of its
        build sides and its joins are events of one pipeline, charged in
        the interpreter's order around the loop."""
        plan = Project(InnerJoin(InnerJoin(InnerJoin(
            self.scan("A", "a"), self.scan("B", "b"), [("a.k", "b.k")]),
            self.scan("C", "c"), [("b.j", "c.t")]),
            self.scan("B", "b2"), [("c.k", "b2.k")]),
            [ProjectItem(ColumnRef("a.id"), "a"),
             ProjectItem(ColumnRef("b2.id"), "b2")])
        _, log = _interpreted(nulls_db, plan)
        labels = [label for label, _, _ in log]
        assert labels == ["scan", "scan", "join", "scan", "join", "scan",
                          "join", "project"]
        for k in range(len(log)):
            _assert_twins(nulls_db, plan, _cut_budget(log, k))

    def test_node_cache_hit_at_a_breaker(self, nulls_db, tiny_db, q1_tree,
                                         monkeypatch):
        """A third lowered run serves the distinct, the union and the
        pipelines under them from the node cache (the sort above, a plan
        root, is not kept), with the interpreter's rows and charge log.
        An uncached outer-union sweep likewise serves the distincts and
        outer unions its plans share, never a sort, and times every plan
        as the interpreter does."""
        _, _, union = self.shared_prefix_plan()
        plan = Sort(Distinct(union), list(union.column_names()[:3]))
        _assert_twins(nulls_db, plan)
        engine = QueryEngine(nulls_db)
        expected_rows, expected_log = _interpreted(nulls_db, plan)
        for _ in range(3):
            assert _run_compiled(engine, plan, None)[:2] == (
                expected_rows, expected_log)
        assert engine.node_cache.get(plan.fingerprint()) is None
        kept = engine.node_cache.get(plan.child.fingerprint())
        assert sorted(kept.rows(), key=sort_key) == sorted(
            expected_rows, key=sort_key)
        assert engine.node_cache.get(union.fingerprint()) is not None
        assert engine.node_cache.stats().hits > 0

        hits = set()

        class Probe(NodeResultCache):
            def get(self, fingerprint):
                value = super().get(fingerprint)
                if value is not None:
                    hits.add(fingerprint)
                return value

        monkeypatch.setattr(sweep_module, "NodeResultCache", Probe)
        partitions = list(enumerate_partitions(q1_tree))[:48]
        kwargs = dict(partitions=partitions, cache=False,
                      style=PlanStyle.OUTER_UNION)
        connection = Connection(tiny_db, CostModel())
        swept = sweep_module.sweep_partitions(
            q1_tree, tiny_db.schema, connection, **kwargs)
        reference = sweep_module.sweep_partitions(
            q1_tree, tiny_db.schema,
            Connection(tiny_db, CostModel(), engine="tuple"), **kwargs)
        assert swept.timings == reference.timings
        generator = SqlGenerator(q1_tree, tiny_db.schema,
                                 style=PlanStyle.OUTER_UNION)
        breakers = {Distinct: set(), OuterUnion: set(), Sort: set()}
        for partition in partitions:
            for spec in generator.streams_for_partition(partition):
                stack = [spec.plan]
                while stack:
                    op = stack.pop()
                    stack.extend(op.children)
                    if type(op) in breakers:
                        breakers[type(op)].add(op.fingerprint())
        assert hits & breakers[Distinct] and hits & breakers[OuterUnion]
        stored = {fp for fp, _ in connection.engine.node_cache.items()}
        assert not stored & breakers[Sort]

    def test_concurrent_first_runs(self):
        """Eight threads run two fresh plans on one engine over a fresh
        database at once, with a switch interval short enough to interleave
        the first lowering of the operators, the first build of the
        tables' and the batches' indexes and the node cache's first
        stores: every run returns and charges what the interpreter does."""
        db = _nulls_db()
        plans = [self.shared_prefix_plan()[2], Distinct(self.shared_prefix_plan()[1])]
        expected = [_interpreted(_nulls_db(), plan) for plan in plans]
        engine = QueryEngine(db)
        failures = []

        def work(i):
            try:
                for _ in range(5):
                    rows, log, _ = _run_compiled(engine, plans[i % 2], None)
                    assert (rows, log) == expected[i % 2]
            except Exception as exc:  # reported below, with the thread's
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# ---------------------------------------------------------------------------
# Sort facts over lowered plans


_FACTS_SCHEMA = DatabaseSchema([
    TableSchema(name, [
        Column("id", SqlType.INTEGER), Column("k", SqlType.INTEGER, True),
        Column("d", SqlType.DECIMAL, True), Column("t", SqlType.DATE, True),
        Column("s", SqlType.VARCHAR, True),
    ], key=["id"]) for name in ("A", "B", "C")
])


def _facts_db():
    """``A`` mixes value types in every nullable column (DECIMAL int and
    float, DATE date and datetime, VARCHAR ``str`` and a subclass) beside
    NULLs; ``B`` holds one type per column and no NULL; ``C`` one type
    per column and NULLs."""
    db = Database(_FACTS_SCHEMA)
    day = datetime.date(2001, 5, 21)
    mixed = [
        (0, 0.5, day, "a"), (1, 2, _DATETIMES[0], _Name("a")),
        (None, -0.0, None, None), (2, 0.0, day, _Name("")), (1, None, day, "b"),
        (0, 1, _DATETIMES[1], "a"), (None, 2.0, day, _Name("b")),
    ]
    for i, (k, d, t, s) in enumerate(mixed):
        db.insert("A", i, k, d, t, s)
        db.insert("B", i, i % 3, 0.5 * (i % 4), day, "ab"[i % 2])
        db.insert("C", i, k, None if d is None else float(d), t and day, s and str(s))
    return db


class _FactsPlans(_Plans):
    SCHEMA = _FACTS_SCHEMA


@st.composite
def _sorted_plans(draw):
    """A random plan under a ``Sort`` whose keys are its whole row in
    order, in another order, or a few of its columns."""
    plan = _FactsPlans(draw).relation(depth=2)
    names = list(plan.column_names())
    keys = draw(st.sampled_from(["whole", "permuted", "some"]))
    if keys == "permuted":
        names = draw(st.permutations(names))
    elif keys == "some":
        names = draw(st.lists(st.sampled_from(names), min_size=1,
                              max_size=4, unique=True))
    return Sort(plan, names)


def _sorts_rows(db, plan):
    """Whether the batch engine sorts ``plan``'s rows as they are."""
    unit = pipeline.lower(plan)
    kinds = unit.kinds(db)
    return ordering.rows_are_keys(
        unit.arity, unit.key_positions,
        [kinds[p] for p in unit.key_positions], unit.constant)


def _assert_entries_equal(db, plan):
    """The plan-cache entries the two engines store for ``plan``: rows,
    charge log and weight (``nbytes``, from the width the sort sampled)."""
    caches = {mode: PlanResultCache() for mode in ENGINE_MODES}
    for mode in ENGINE_MODES:
        QueryEngine(db, cache=caches[mode], engine=mode).execute(plan)
    key = QueryEngine(db).cache_key_for(plan)
    assert _entry(caches["batch"].peek(key)) == _entry(
        caches["tuple"].peek(key))


class TestSortFactsOnPlans:
    """Key columns fed by mixed-type base columns, NULL literals,
    outer-join padding and outer-union slots a branch lacks: the facts
    the sort derives from the plan and the tables give the tuple engine's
    rows, charge log and plan-cache entry."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=_sorted_plans())
    def test_random_plans(self, plan):
        db = _facts_db()
        _assert_twins(db, plan)
        _assert_entries_equal(db, plan)

    def scan(self, table, alias):
        return Scan(_FACTS_SCHEMA.table(table), alias)

    def columns(self, op, *names):
        return Project(op, [ProjectItem(ColumnRef(name), name.split(".")[1])
                            for name in names])

    def test_one_type_columns_sort_as_rows(self):
        db = _facts_db()
        plan = Sort(self.columns(self.scan("B", "b"), "b.d", "b.t", "b.s",
                                 "b.id"), ["d", "t", "s", "id"])
        assert _sorts_rows(db, plan)
        _assert_twins(db, plan)
        _assert_entries_equal(db, plan)

    def test_literals_tie_and_nulls_pad(self):
        """A tag literal is a constant column, left aside; a NULL literal
        and outer-join padding add ``NoneType``, so the key is built."""
        db = _facts_db()
        tagged = Project(self.scan("B", "b"), [
            ProjectItem(Literal(1, SqlType.INTEGER), "L1"), ProjectItem(ColumnRef("b.k"), "k"),
            ProjectItem(ColumnRef("b.id"), "id")])
        plan = Sort(tagged, ["k", "L1", "id"])
        assert _sorts_rows(db, plan)
        _assert_twins(db, plan)
        null = Project(tagged, [ProjectItem(ColumnRef("k"), "k"),
                                ProjectItem(Literal(None, SqlType.INTEGER),
                                            "n"),
                                ProjectItem(ColumnRef("id"), "id")])
        padded = simple_outer_join(self.scan("B", "b"), self.scan(
            "B", "x"), [("b.k", "x.id")])
        for plan in (Sort(null, ["k", "n", "id"]),
                     Sort(null, ["n", "k", "id"]),
                     Sort(padded, list(padded.column_names()))):
            _assert_twins(db, plan)
            _assert_entries_equal(db, plan)
        assert pipeline.lower(Sort(padded, ["x.id"])).kinds(db)[5] == {
            int, type(None)}

    def test_union_slots_a_branch_lacks(self):
        db = _facts_db()
        union = OuterUnion([
            self.columns(self.scan("A", "a"), "a.id", "a.d", "a.s"),
            self.columns(self.scan("B", "b"), "b.id", "b.t"),
        ])
        plan = Sort(union, ["id", "d", "s", "t"])
        unit = pipeline.lower(plan)
        assert unit.kinds(db) == [{int}, {int, float, type(None)},
                                  {str, _Name, type(None)},
                                  {datetime.date, type(None)}]
        _assert_twins(db, plan)
        _assert_entries_equal(db, plan)

    def test_no_facts_no_sort(self):
        """An operator the facts cannot see through fails the lowering
        of a sort above it: there is no scanning fallback."""

        class Opaque(Operator):
            def __init__(self, child):
                self.child = child

            def columns(self):
                return self.child.columns()

        with pytest.raises(ExecutionError, match="value types"):
            pipeline.column_facts(Opaque(self.scan("B", "b")))


class TestSortFactsCoverage:
    """Every root sort of the paper's plans — Q1 and Q2, greedy, unified
    and fully partitioned, both styles, reduced or not — derives facts
    holding every value type its input really has, and the number that
    sort their rows as they are is pinned, so a plan that silently falls
    back to building keys fails here."""

    #: Root sorts of the 24 plans on the tiny database: all of them, and
    #: those that sort their rows as they are — the 80 streams of the
    #: fully partitioned plans; every multi-node stream has a NULL-padded
    #: key column.
    SORTS = 97
    ROW_SORTS = 80

    def test_facts_cover_the_scanned_types(self, tiny_db, tiny_estimator):
        interpreter = QueryEngine(tiny_db, engine="tuple")
        sorts = row_sorts = 0
        for query in (QUERY_1, QUERY_2):
            view = SilkRoute(Connection(tiny_db, CostModel()),
                             estimator=tiny_estimator).define_view(query)
            for partition in (None, "unified", "fully-partitioned"):
                for style in PlanStyle:
                    for reduce in (False, True):
                        for spec in view.specs(partition, style=style,
                                               reduce=reduce):
                            unit = pipeline.lower(spec.plan)
                            assert isinstance(unit, pipeline._Sort)
                            kinds = unit.kinds(tiny_db)
                            rows = interpreter.execute(spec.plan.child).rows
                            for p, column in enumerate(zip(*rows)):
                                assert set(map(type, column)) <= kinds[p]
                            sorts += 1
                            row_sorts += _sorts_rows(tiny_db, spec.plan)
        assert (sorts, row_sorts) == (self.SORTS, self.ROW_SORTS)


class TestSortCheck:
    """The root sort checks before it sorts.  Outer-join plans emit their
    rows in key order, so a sweep of them copies every checked input as
    it is; an outer union emits its branches one after another, and a
    write can store a row out of key order: both are sorted, the latter
    to the tuple engine's document."""

    #: Per style, the root sorts that the full Q1 and Q2 sweeps (1,024
    #: plans) on the tiny database evaluate — the sweep's cache answers a
    #: stream it has run — and that check or sort keys: the rest sort rows
    #: that are their own key.
    CHECKED = 234

    def test_only_outer_union_sweeps_resort(self, tiny_db):
        counters = {}
        for style in PlanStyle:
            obs = ObsOptions()
            session = Session(Connection(tiny_db, CostModel()))
            for query in (QUERY_1, QUERY_2):
                session.sweep(query, options=ExecutionOptions(
                    obs=obs, style=style))
            counters[style] = obs.metrics.snapshot()["counters"]
        checked = {style: (counts.get("sort.presorted", 0),
                           counts.get("sort.resorted", 0))
                   for style, counts in counters.items()}
        assert checked == {PlanStyle.OUTER_JOIN: (self.CHECKED, 0),
                           PlanStyle.OUTER_UNION: (0, self.CHECKED)}

    def test_a_row_keyed_before_the_table_is_resorted(self):
        """Supplier 0 is stored after every other supplier, so the
        unified Q1 stream emits it last; it is the first supplier of the
        document."""
        documents, counters = {}, {}
        for mode in ENGINE_MODES:
            db = TpchGenerator(scale=TpchScale(suppliers=8, parts=16,
                                               customers=10, orders=40),
                               seed=42).generate()
            nation = db.table("Supplier").rows[-1][3]
            db.insert("Supplier", 0, "Supplier#000000", "addr", nation)
            obs = ObsOptions()
            session = Session(Connection(db, CostModel(), engine=mode))
            documents[mode] = session.materialize(
                QUERY_1, "unified", options=ExecutionOptions(obs=obs)).xml
            counters[mode] = obs.metrics.snapshot()["counters"]
        assert documents["batch"] == documents["tuple"]
        first = documents["batch"].index("<name>Supplier#")
        assert documents["batch"].startswith("<name>Supplier#000000", first)
        assert counters["batch"]["sort.resorted"] > 0
        assert not {"sort.presorted", "sort.resorted"} & set(
            counters["tuple"])


class TestTableIndexes:
    """A join whose build side is a base table probes ``Table.index_on``,
    and a sort reads its key columns' value types from
    ``Table.value_types``; every write path must leave no index and no
    types of the old rows behind."""

    PLAN_TABLES = ("A", "C")

    def plan(self):
        return InnerJoin(Scan(_NULLS_SCHEMA.table("A"), "a"),
                         Scan(_NULLS_SCHEMA.table("C"), "c"),
                         [("a.k", "c.k")])

    def sort_plan(self):
        """Sorted by ``A.d`` then ``A.id``, the whole row in order: the
        rows sort as they are while ``d`` holds floats only."""
        return Sort(Project(Scan(_NULLS_SCHEMA.table("A"), "a"), [
            ProjectItem(ColumnRef("a.d"), "d"),
            ProjectItem(ColumnRef("a.id"), "id")]), ["d", "id"])

    def check(self, db):
        """Join and sort equal the interpreter's; returns whether the sort
        took the rows as they are."""
        for plan in (self.plan(), self.sort_plan()):
            expected = QueryEngine(db, engine="tuple").execute(plan).rows
            assert repr(QueryEngine(db).execute(plan).rows) == repr(expected)
        assert db.table("C")._indexes  # the read built the index
        assert db.table("A")._indexes  # ... and the value types
        return _sorts_rows(db, self.sort_plan())

    def test_every_write_path_drops_the_index(self):
        db = _nulls_db()
        a, c = db.table("A"), db.table("C")
        assert not self.check(db)                     # NULLs in A.d
        db.insert("C", 100, 1, 1)
        db.update("A", lambda row: row["d"] is None, {"d": -0.0})
        assert self.check(db)                         # floats only
        db.update("C", lambda row: row["id"] == 100, {"k": 0})
        db.insert("A", 100, 0, 0, "x", 2)
        assert not self.check(db)                     # an int beside them
        db.delete("C", lambda row: row["k"] == 2)
        db.delete("A", lambda row: row["id"] == 100)
        assert self.check(db)
        c.restore(_nulls_db().table("C").rows, c.version + 1)
        a.restore(_nulls_db().table("A").rows, a.version + 1)
        assert not self.check(db)

    def test_recovery_drops_the_index(self, tmp_path):
        logged = _nulls_db()
        store = Store(tmp_path)
        store.attach(logged)
        logged.insert("C", 100, 0, 1)
        logged.update("C", lambda row: row["id"] == 0, {"k": 2})
        logged.delete("C", lambda row: row["id"] == 3)
        logged.update("A", lambda row: row["d"] is None, {"d": 1.0})
        logged.insert("A", 100, 0, 0, "x", 2)
        logged.delete("A", lambda row: row["id"] == 100)
        store.close()
        restarted = _nulls_db()
        assert not self.check(restarted)
        Store(tmp_path).attach(restarted)
        for name in self.PLAN_TABLES:
            assert restarted.table(name).rows == logged.table(name).rows
        assert self.check(restarted)

    @pytest.mark.parametrize("op", ["insert", "update", "delete"])
    def test_session_mutate_then_materialize(self, op):
        """Writes through ``Session.mutate`` between reads: each document
        is a fresh database's holding the same rows."""
        db = TpchGenerator(scale=TpchScale(suppliers=8, parts=16,
                                           customers=10, orders=40),
                           seed=7).generate()
        session = Session(Connection(db, CostModel()))
        for query in (QUERY_1, QUERY_2):
            session.materialize(query, "fully-partitioned")
        for i, table in enumerate(("Supplier", "Part", "Orders")):
            session.mutate(table, op=op, rows=2, seed=i)
            for query in (QUERY_1, QUERY_2):
                for partition in ("fully-partitioned", "unified", None):
                    served = session.materialize(query, partition)
                    fresh = Session(Connection(_same_rows(db), CostModel()),
                                    cache=False)
                    assert served.xml == fresh.materialize(
                        query, partition).xml


def _same_rows(db):
    """A fresh database holding ``db``'s rows, in stored order."""
    clone = Database(db.schema)
    for name, table in db.tables.items():
        for row in table.rows:
            clone.table(name).insert(*row)
    return clone


class TestSortWidth:
    """The sort samples its input's width from whichever form the batch
    holds: the column form gives the row form's integer sum, and so does
    a sample that reads only the columns whose values decide it."""

    @given(rows=st.lists(st.tuples(
        st.none() | st.text(alphabet="ab", max_size=3),
        st.none() | st.integers(-2, 2),
        st.none() | st.sampled_from([0.5, 2.0, 7])), min_size=1, max_size=1200))
    @settings(max_examples=60, deadline=None)
    def test_column_form_is_the_row_form(self, rows):
        columns = (
            ColumnInfo("v", SqlType.VARCHAR), ColumnInfo("i", SqlType.INTEGER),
            ColumnInfo("d", SqlType.DECIMAL),
        )
        expected = average_row_width(columns, rows)
        by_columns = Batch.from_columns([list(c) for c in zip(*rows)],
                                        len(rows))
        assert by_columns.average_width(columns) == expected
        assert Batch.from_rows(rows, 3).average_width(columns) == expected
        # Told which columns may hold a NULL (exactly, or all of them),
        # the sample skips fixed-width columns that hold none: same sum.
        exact = [None in column for column in zip(*rows)]
        for nullable in (exact, [True] * 3):
            for batch in (by_columns, Batch.from_rows(rows, 3)):
                assert batch.average_width(columns, nullable) == expected
