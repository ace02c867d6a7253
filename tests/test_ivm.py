"""Incremental view maintenance: mutations, delta propagation, splicing.

The contract under test: a mutation through the
:class:`~repro.relational.database.Database` API moves only the touched
tables' generations, the dependency-scoped caches drop exactly the
entries that read those tables, and re-materializing a view afterwards
is byte-identical — XML and simulated timings — to a cold run against a
fresh database holding the same final state.  The property tests drive
random interleavings of writes and materializations through both
engines, several dispatch widths, faults, and replicas, and through the
top-level splice over both queries, styles and reductions and several
plans.
"""

import gc
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2
from repro.cli import _apply_delta
from repro.common.errors import ReproError, SchemaError, StaleGenerationError
from repro.core.options import ExecutionOptions
from repro.core.partition import Partition
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.obs import ObsOptions
from repro.relational.cache import (
    BoundedCache, NodeResultCache, PlanResultCache,
)
from repro.relational.connection import Connection
from repro.relational.database import Database, synthesize_rows
from repro.relational.dependencies import is_stale, plan_tables
from repro.relational.dispatch import execute_specs
from repro.relational.engine import ENGINE_MODES, CostModel
from repro.relational.estimator import CostEstimator
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience
from repro.session import Session
from repro.tpch.generator import TpchGenerator, TpchScale
from conftest import spans_named

TINY = TpchScale(suppliers=8, parts=16, customers=10, orders=40)


def fresh_setup(seed=42, cache=True, engine="batch"):
    """A private mutable database plus a cached SilkRoute view over it
    (the session fixtures are shared, so mutation tests build their own),
    on a connection in ``engine`` mode."""
    db = TpchGenerator(scale=TINY, seed=seed).generate()
    connection = Connection(db, CostModel(), engine=engine)
    silk = SilkRoute(
        connection, estimator=CostEstimator(db, CostModel()), cache=cache,
    )
    return db, connection, silk, silk.define_view(QUERY_1)


def clone_from_state(db):
    """A fresh :class:`Database` holding ``db``'s current rows in stored
    order — the cold-run oracle for incremental maintenance."""
    clone = Database(db.schema)
    for name, table in db.tables.items():
        fresh = clone.table(name)
        for row in table.rows:
            fresh.insert(*row)
    return clone


def cold_materialize(db, strategy, options, engine="batch"):
    """Materialize ``QUERY_1`` over a clone of ``db`` through a fresh
    (cache-empty) connection in ``engine`` mode."""
    clone = clone_from_state(db)
    connection = Connection(clone, CostModel(), engine=engine)
    view = SilkRoute(
        connection, estimator=CostEstimator(clone, CostModel()),
    ).define_view(QUERY_1)
    return view.materialize(strategy, root_tag="view", options=options)


# ---------------------------------------------------------------------------
# Mutation API


class TestMutationApi:
    def test_insert_bumps_only_that_table(self):
        db, _, _, _ = fresh_setup()
        before = db.table_generations()
        [row] = synthesize_rows(db, "Nation", 1)
        db.insert("Nation", *row)
        after = db.table_generations()
        assert after["Nation"] == before["Nation"] + 1
        assert {k: v for k, v in after.items() if k != "Nation"} == \
            {k: v for k, v in before.items() if k != "Nation"}

    def test_update_counts_and_preserves_slots(self):
        db, _, _, _ = fresh_setup()
        table = db.table("Supplier")
        keys_before = [row[0] for row in table.rows]
        matched = db.update(
            "Supplier", lambda row: row["suppkey"] == keys_before[0],
            {"name": "renamed"},
        )
        assert matched == 1
        assert [row[0] for row in table.rows] == keys_before
        assert table.rows[0][table.schema.column_index("name")] == "renamed"

    def test_no_match_update_is_a_version_noop(self):
        db, _, _, _ = fresh_setup()
        version = db.table("Supplier").version
        assert db.update("Supplier", lambda row: row["suppkey"] == -1, {"name": "x"}) == 0
        assert db.table("Supplier").version == version

    def test_delete_counts_and_preserves_order(self):
        db, _, _, _ = fresh_setup()
        table = db.table("Supplier")
        survivors = [row[0] for row in table.rows[1:]]
        victim = table.rows[0][0]
        assert db.delete("Supplier", lambda row: row["suppkey"] == victim) == 1
        assert [row[0] for row in table.rows] == survivors

    def test_failed_update_commits_nothing(self):
        db, _, _, _ = fresh_setup()
        table = db.table("Supplier")
        rows_before = list(table.rows)
        version = table.version
        first_key = table.rows[0][0]
        with pytest.raises(SchemaError):
            # Collapse every key onto one value: duplicate primary key.
            db.update("Supplier", lambda row: True, {"suppkey": first_key})
        assert table.rows == rows_before
        assert table.version == version

    def test_synthesized_rows_join_and_validate(self):
        db, _, _, _ = fresh_setup()
        rows = synthesize_rows(db, "Supplier", 3, seed=7)
        assert len(rows) == 3
        for row in rows:
            db.insert("Supplier", *row)
        db.check_foreign_keys()
        nationkeys = set(db.table("Nation").column_values("nationkey"))
        position = db.table("Supplier").schema.column_index("nationkey")
        assert all(row[position] in nationkeys for row in rows)


# ---------------------------------------------------------------------------
# Dependency footprints and cache keys


class TestDependencyKeys:
    def _specs(self, db, view):
        generator = SqlGenerator(view.tree, db.schema)
        return generator.streams_for_partition(view.fully_partitioned())

    def test_plan_tables_names_the_scanned_tables(self):
        db, _, _, view = fresh_setup()
        specs = self._specs(db, view)
        footprints = [plan_tables(spec.plan) for spec in specs]
        assert all(fp for fp in footprints)
        everything = frozenset().union(*footprints)
        assert "Supplier" in everything and "Nation" in everything
        # Fully partitioned: no single stream reads every table.
        assert all(fp < everything for fp in footprints)

    def test_dependency_key_moves_only_for_read_tables(self):
        db, connection, _, view = fresh_setup()
        engine = connection.engine
        spec = next(
            s for s in self._specs(db, view)
            if "Region" not in engine.tables_for(s.plan)
        )
        key = engine.dependency_key(spec.plan)
        cache_key = engine.cache_key_for(spec.plan)
        [row] = synthesize_rows(db, "Region", 1)
        db.insert("Region", *row)
        assert engine.dependency_key(spec.plan) == key
        assert engine.cache_key_for(spec.plan) == cache_key
        touched = sorted(engine.tables_for(spec.plan))[0]
        db.delete(touched, lambda row: False)
        assert engine.dependency_key(spec.plan) == key  # 0 rows: no-op
        first = db.table(touched).rows[0]
        db.delete(touched, lambda row: tuple(row.values()) == first)
        assert engine.dependency_key(spec.plan) != key
        assert engine.cache_key_for(spec.plan) != cache_key

    def test_memoized_names_key_as_sorting_them_does(self):
        """An interned table set's names are sorted once; its key, and
        every other iterable's, is the token and the live generations in
        name order, across writes."""
        db, _, _, view = fresh_setup()

        def sorted_key(tables):
            return (db._token, tuple(
                (name, db.table(name).version) for name in sorted(tables)))

        interned = [plan_tables(spec.plan) for spec in self._specs(db, view)]
        others = [set(interned[-1]), list(interned[-1])[::-1],
                  frozenset(["Region", "Nation"]), (), frozenset()]
        for write in range(3):
            for tables in interned + others:
                assert db.dependency_key(tables) == sorted_key(tables)
            for table in ("Supplier", "Region"):
                [row] = synthesize_rows(db, table, 1, seed=write)
                db.insert(table, *row)


# ---------------------------------------------------------------------------
# NodeResultCache


class _FakeBatch:
    def __init__(self, length, arity=2):
        self.length = length
        self.arity = arity


class TestNodeResultCache:
    def test_capacity_evicts_oldest(self):
        cache = NodeResultCache(max_entries=3)
        for i in range(6):
            # The first store only marks a fingerprint seen.
            for _ in range(2):
                cache.store(f"f{i}", _FakeBatch(1))
        assert len(cache) == 3
        assert cache.stats().evictions == 3
        assert cache.get("f2") is None and cache.get("f3") is not None
        assert cache.stats().max_bytes == float("inf")


# ---------------------------------------------------------------------------
# PlanResultCache invalidation


class TestPlanCacheInvalidation:
    def test_mutation_drops_only_dependent_entries(self):
        db, connection, silk, view = fresh_setup()
        view.materialize("fully-partitioned",
                         options=ExecutionOptions(obs=ObsOptions()))
        cache = silk.cache
        entries_before = len(cache)
        assert entries_before > 0
        [row] = synthesize_rows(db, "Region", 1)
        db.insert("Region", *row)
        obs = ObsOptions()
        view.materialize("fully-partitioned",
                         options=ExecutionOptions(obs=obs))
        stats = cache.stats()
        assert stats.invalidations > 0
        assert stats.invalidations < entries_before
        counters = obs.metrics.snapshot()["counters"]
        assert counters["plan_cache.invalidations"] == stats.invalidations

    def test_opaque_keys_survive_invalidation(self):
        db, _, _, _ = fresh_setup()
        cache = PlanResultCache()

        class Entry:
            nbytes = 1.0
            complete = True
        cache.store(("plan", 1), Entry())
        cache.store("opaque", Entry())
        cache.store(7, Entry())
        [row] = synthesize_rows(db, "Nation", 1)
        db.insert("Nation", *row)
        assert cache.discard_stale(db) == 0
        assert cache.peek(("plan", 1)) is not None
        assert len(cache) == 3


# ---------------------------------------------------------------------------
# Stale-generation guard


class TestStaleGenerationGuard:
    def test_mid_sweep_mutation_raises_repro_error(self):
        db, connection, _, view = fresh_setup()
        generator = SqlGenerator(view.tree, db.schema)
        specs = generator.streams_for_partition(view.fully_partitioned())
        pinned = db.table_generations()
        [row] = synthesize_rows(db, "Nation", 1)
        db.insert("Nation", *row)
        with pytest.raises(StaleGenerationError) as exc_info:
            execute_specs(connection, specs, expect_generations=pinned)
        error = exc_info.value
        assert isinstance(error, ReproError)
        assert list(error.tables) == ["Nation"]
        assert "Nation" in str(error) and "mutated mid-sweep" in str(error)

    def test_matching_generations_pass(self):
        db, connection, _, view = fresh_setup()
        generator = SqlGenerator(view.tree, db.schema)
        specs = generator.streams_for_partition(view.unified_partition())
        result = execute_specs(
            connection, specs, expect_generations=db.table_generations(),
        )
        assert result.timeout is None


# ---------------------------------------------------------------------------
# Incremental re-materialization == cold run


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("engine", ["batch", "tuple"])
    @pytest.mark.parametrize("op,table", [
        ("insert", "Nation"),
        ("insert", "Supplier"),
        ("update", "LineItem"),
        ("delete", "PartSupp"),
    ])
    def test_delta_matches_cold_run(self, engine, op, table):
        db, _, _, view = fresh_setup(engine=engine)
        options = ExecutionOptions()
        view.materialize("fully-partitioned", root_tag="view",
                         options=options)
        assert _apply_delta(db, table, op, 2, seed=3) > 0
        incremental = view.materialize("fully-partitioned", root_tag="view",
                                       options=options)
        cold = cold_materialize(db, "fully-partitioned", options, engine)
        assert incremental.xml == cold.xml
        assert incremental.report.query_ms == cold.report.query_ms
        assert incremental.report.transfer_ms == cold.report.transfer_ms

    def test_untouched_streams_splice_from_cache(self):
        db, _, _, view = fresh_setup()
        options = ExecutionOptions()
        view.materialize("fully-partitioned", root_tag="view",
                         options=options)
        first = view.instance_cache.stats()
        # The first tagging tags every top-level group.
        assert first["misses"] > 0 and first["hits"] == 0
        # An unchanged re-materialization serves the finished document —
        # no re-decode, no re-tag.
        repeat = view.materialize("fully-partitioned", root_tag="view",
                                  options=options)
        assert view.document_cache.stats()["hits"] == 1
        assert view.instance_cache.stats() == first
        # Any plan of the same view can serve the document too.
        unified = view.materialize("unified", root_tag="view",
                                   options=options)
        assert view.document_cache.stats()["hits"] == 2
        assert unified.xml == repeat.xml
        assert _apply_delta(db, "Region", "update", 1, seed=1) == 1
        incremental = view.materialize("fully-partitioned", root_tag="view",
                                       options=options)
        third = view.instance_cache.stats()
        reused = third["hits"] - first["hits"]
        retagged = third["misses"] - first["misses"]
        assert retagged > 0         # the suppliers of the renamed region
        assert reused > 0           # ...but the others were copied
        assert reused + retagged == first["misses"]
        cold = cold_materialize(db, "fully-partitioned", options)
        assert incremental.xml == cold.xml
        assert repeat.xml != incremental.xml  # the delta is visible


# ---------------------------------------------------------------------------
# Lifetimes: a write retires what it orphans


def generation_keyed_caches(session, view):
    """The two dependency-keyed maps behind ``view``, each with the
    position of the dependency key in its keys.  (The splice's last
    taggings are keyed by serialization and plan shape: each tagging
    replaces the one before.)"""
    return [
        (session.silkroute.cache, 1),
        (view.document_cache, 2),
    ]


class TestLifetimes:
    CYCLES = 40
    TABLES = ("Supplier", "Customer", "Region")

    @pytest.mark.parametrize("strategy",
                             [None, "unified", "fully-partitioned"])
    def test_heap_follows_live_data_not_the_write_count(self, strategy):
        session = Session()
        connection, database = session.connection, session.database
        view = session.view(QUERY_1)
        # Live heap blocks: what ``tracemalloc`` would report in bytes
        # (benchmarks/test_memory.py does, and asserts them), at none of
        # its 6x cost on a loop this allocation-heavy.
        blocks = {}
        for cycle in range(1, self.CYCLES + 1):
            session.mutate(self.TABLES[cycle % 3], op="update", rows=2,
                           seed=cycle)
            # Two serialization variants, so the document bound below
            # is not trivially 1.
            served = session.materialize(QUERY_1, strategy)
            indented = session.materialize(QUERY_1, strategy, indent=2)
            assert indented.xml != served.xml

            current = database.table_generations()
            for cache, at in generation_keyed_caches(session, view):
                dead = [
                    key for key, _ in cache.items()
                    if is_stale(key[at], database._token, current)
                ]
                assert not dead, (cache.name, cycle, dead[:1])
            # One last tagging, one document per serialization variant.
            assert len(view.instance_cache) <= 2
            assert len(view.document_cache) <= 2
            if cycle in (5, self.CYCLES):
                gc.collect()
                blocks[cycle] = sys.getallocatedblocks()

            fresh = Session(
                Connection(database, connection.engine.cost_model,
                           connection.transfer_model),
                estimator=session.silkroute.estimator,
            ).materialize(QUERY_1, strategy)
            assert served.xml == fresh.xml
            assert served.query_ms == fresh.query_ms
            assert served.transfer_ms == fresh.transfer_ms
            del fresh
        assert blocks[self.CYCLES] <= 1.25 * blocks[5], blocks
        assert view.instance_cache.stats()["hits"] > 0  # still splices
        # What was summed over a plan's rows lives on its entry, one sum
        # per (transfer model, row format), and nowhere else: the plan
        # cache is the only map hanging off the connection or its engine
        # that a read fills — the engine's node cache is a sweep's, and
        # no read looks it up or fills it.
        formats = {(connection.transfer_model, compact)
                   for compact in (False, True)}
        for _, entry in session.silkroute.cache.items():
            assert entry.transfer_sums and set(entry.transfer_sums) <= formats
        maps = {
            value.name
            for owner in (connection, connection.engine)
            for value in vars(owner).values()
            if isinstance(value, BoundedCache)
        }
        assert maps == {"plan_cache", "node_cache"}
        node_stats = connection.engine.node_cache.stats()
        assert (len(connection.engine.node_cache), node_stats.requests,
                node_stats.stores) == (0, 0, 0)

    @pytest.mark.parametrize("engine", ENGINE_MODES)
    def test_either_engine_retires_dead_plan_entries(self, engine):
        """Retire-on-write belongs to the engine, not to the batch
        kernels: 7 reads of the fully partitioned Q1 (10 streams, all
        reading Supplier) with a one-row ``Supplier`` update between them
        leave the 10 live plan entries, not 10 per generation."""
        session = Session(Connection(
            TpchGenerator(scale=TINY, seed=42).generate(), CostModel(),
            engine=engine,
        ))
        for read in range(7):
            if read:
                session.mutate("Supplier", op="update", rows=1, seed=read)
            served = session.materialize(QUERY_1, "fully-partitioned")
        cache, database = session.silkroute.cache, session.database
        assert served.report.n_streams == len(cache) == 10
        current = database.table_generations()
        assert not [
            key for key, _ in cache.items()
            if is_stale(key[1], database._token, current)
        ]


# ---------------------------------------------------------------------------
# Property: random interleavings reconcile with the final state


_MUTABLE_TABLES = ["Nation", "Supplier", "PartSupp", "LineItem", "Customer"]

_STEPS = st.lists(
    st.one_of(
        st.just(("materialize",)),
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.sampled_from(_MUTABLE_TABLES),
            st.integers(min_value=1, max_value=3),
        ),
    ),
    min_size=1,
    max_size=5,
)


def _variant_options(workers, resilience):
    policy = None
    if resilience == "faults":
        policy = Resilience(faults=FaultPolicy(seed=5, error_rate=0.15),
                            retry=RetryPolicy(max_attempts=6))
    elif resilience == "replicas":
        policy = Resilience(replicas=2, retry=RetryPolicy(max_attempts=6))
    return ExecutionOptions(workers=workers, resilience=policy)


class TestInterleavingProperty:
    @pytest.mark.parametrize("engine,workers,resilience", [
        ("batch", None, None),
        ("tuple", None, None),
        ("batch", 2, "faults"),
        ("batch", 2, "replicas"),
    ])
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=_STEPS)
    def test_interleavings_match_final_state(self, steps, engine, workers,
                                             resilience):
        db, _, _, view = fresh_setup(seed=11, engine=engine)
        options = _variant_options(workers, resilience)
        for i, step in enumerate(steps):
            if step[0] == "materialize":
                view.materialize("fully-partitioned", root_tag="view",
                                 options=options)
            else:
                op, table, count = step
                try:
                    _apply_delta(db, table, op, count, seed=i)
                except SchemaError:
                    continue  # e.g. key space exhausted; skip the step
        final = view.materialize("fully-partitioned", root_tag="view",
                                 options=options)
        cold = cold_materialize(db, "fully-partitioned", options, engine)
        assert final.xml == cold.xml
        if resilience is None:
            assert final.report.query_ms == cold.report.query_ms
            assert final.report.transfer_ms == cold.report.transfer_ms


# ---------------------------------------------------------------------------
# The top-level splice: re-tagging only the groups whose rows changed


QUERIES = {"q1": QUERY_1, "q2": QUERY_2}

#: Q1's supplier with its parts' DECIMAL retail prices on display.
RETAIL_VIEW = """
from Supplier $s
construct
  <supplier>
    <name>$s.name</name>
    { from PartSupp $ps, Part $p
      where $s.suppkey = $ps.suppkey and $ps.partkey = $p.partkey
      construct <part><retail>$p.retail</retail></part> }
  </supplier>
"""

#: examples/custom_catalog.py's directory: a ``<party>`` per supplier and
#: per customer, keyed by name (a user Skolem function).
PARTY_DIRECTORY = """
from Region $r0
construct
  <directory>
    { from Supplier $s
      construct <party ID=Party($s.name)>$s.name</party> }
    { from Customer $c
      construct <party ID=Party($c.name)>$c.name</party> }
  </directory>
"""

_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.sampled_from(_MUTABLE_TABLES),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=4,
)


def tagged(result):
    """What a splice must reproduce of a cold run: the document and the
    tagger's counts."""
    tagger = result.tagger
    return (result.xml, tagger.elements_written, tagger.implicit_opens,
            tagger.max_stack_depth)


def cold_run(db, query, partition=None, options=None, **materialize):
    """``query`` materialized by a fresh session without caches over a
    clone of ``db``'s state: the plain single-pass tagging."""
    session = Session(Connection(clone_from_state(db), CostModel()),
                      cache=False)
    return session.materialize(query, partition, options=options,
                               **materialize)


def splice_session(seed=11):
    """A caching session over a private tiny database."""
    db = TpchGenerator(scale=TINY, seed=seed).generate()
    return db, Session(Connection(db, CostModel()))


def random_partition(tree, seed):
    rng = random.Random(seed)
    return Partition(tuple(
        child.index for _, child in tree.edges if rng.random() < 0.5
    ))


class TestSpliceEqualsCold:
    """After writes, a re-materialization copies every top-level group
    whose rows are unchanged and re-tags the rest: the document, and the
    tagger's counts, are a cold run's."""

    @pytest.mark.parametrize("reduce", [False, True], ids=["plain", "reduced"])
    @pytest.mark.parametrize("style", list(PlanStyle), ids=lambda s: s.value)
    @pytest.mark.parametrize("query", sorted(QUERIES))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(writes=_WRITES,
           plan=st.sampled_from(
               ["unified", "greedy", "fully-partitioned", "random"]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_random_writes_splice_to_the_cold_document(
            self, query, style, reduce, writes, plan, seed):
        db, session = splice_session()
        rxl = QUERIES[query]
        view = session.view(rxl)
        partition = {
            "greedy": None,
            "random": random_partition(view.tree, seed),
        }.get(plan, plan)
        options = ExecutionOptions(style=style, reduce=reduce)
        session.materialize(rxl, partition, options=options)
        for i, (op, table, count) in enumerate(writes):
            try:
                _apply_delta(db, table, op, count, seed=seed + i)
            except SchemaError:
                continue  # e.g. key space exhausted; skip the write
            served = session.materialize(rxl, partition, options=options)
            cold = cold_run(db, rxl, served.report.partition, options)
            assert tagged(served) == tagged(cold)
        assert view.instance_cache.stats()["misses"] > 0

    def test_most_groups_are_copied(self):
        db, session = splice_session()
        session.materialize(QUERY_1)
        view = session.view(QUERY_1)
        first = view.instance_cache.stats()
        session.mutate("Supplier", op="update", rows=2, seed=3)
        served = session.materialize(QUERY_1)
        stats = view.instance_cache.stats()
        assert stats["misses"] - first["misses"] == 2
        assert stats["hits"] == first["misses"] - 2
        assert tagged(served) == tagged(cold_run(db, QUERY_1))

    @pytest.mark.parametrize("op,change", [("delete", -1), ("insert", 1)])
    def test_a_write_that_removes_or_adds_a_top_level_element(self, op,
                                                               change):
        db, session = splice_session()
        before = session.materialize(QUERY_1, indent=2)
        if op == "delete":
            # A supplier no part refers to: the whole element goes.
            used = set(db.table("PartSupp").column_values("suppkey"))
            victim = next(row[0] for row in db.table("Supplier").rows
                          if row[0] not in used)
            assert db.delete("Supplier", lambda row: row["suppkey"] == victim) == 1
        else:
            assert _apply_delta(db, "Supplier", "insert", 1, seed=5) == 1
        served = session.materialize(QUERY_1, indent=2)
        assert served.xml.count("<supplier>") == (
            before.xml.count("<supplier>") + change)
        assert tagged(served) == tagged(cold_run(db, QUERY_1, indent=2))
        assert session.view(QUERY_1).instance_cache.stats()["hits"] > 0

    @pytest.mark.parametrize("values,texts", [
        ((2, 2.0, 2), ("2", "2.00", "2")),
        ((0.0, -0.0, 0.0), ("0.00", "-0.00", "0.00")),
    ], ids=["int-float", "signed-zero"])
    def test_equal_decimals_that_print_differently_are_re_tagged(
            self, values, texts):
        db, session = splice_session()
        partkey = db.table("PartSupp").rows[0][0]
        for value, text in zip(values, texts):
            db.update("Part", lambda row: row["partkey"] == partkey, {"retail": value})
            served = session.materialize(RETAIL_VIEW)
            assert f"<retail>{text}</retail>" in served.xml
            assert tagged(served) == tagged(cold_run(db, RETAIL_VIEW))

    def test_an_empty_result(self):
        db, session = splice_session()
        region_view = ("from Region $r construct "
                       "<region><name>$r.name</name></region>")
        assert session.materialize(region_view, indent=1).xml.count(
            "<region>") > 1
        db.delete("Region", lambda row: True)
        served = session.materialize(region_view, indent=1)
        assert served.xml == "<view></view>"
        assert tagged(served) == tagged(cold_run(db, region_view, indent=1))
        _apply_delta(db, "Region", "insert", 1, seed=2)
        served = session.materialize(region_view, indent=1)
        assert served.xml.count("<region>") == 1
        assert tagged(served) == tagged(cold_run(db, region_view, indent=1))

    @pytest.mark.parametrize("plan", ["unified", "fully-partitioned"])
    def test_a_shape_that_fails_the_check_re_tags_in_full(self, plan):
        """A ``<party>`` keyed by its name alone does not carry the
        ``<directory>``'s key: its rows cannot be cut into groups."""
        db, session = splice_session()
        view = session.view(PARTY_DIRECTORY)
        session.materialize(PARTY_DIRECTORY, plan)
        decoders = [view.definition.layout.decoder(spec)
                    for spec in view.specs(plan)]
        assert None in [decoder.group_of for decoder in decoders]
        _apply_delta(db, "Customer", "update", 2, seed=4)
        served = session.materialize(PARTY_DIRECTORY, plan)
        assert tagged(served) == tagged(cold_run(db, PARTY_DIRECTORY, plan))
        assert len(view.instance_cache) == 0
        assert view.instance_cache.stats()["requests"] == 0

    def test_a_plan_dependent_document_is_kept_per_plan(self):
        """``PARTY_DIRECTORY``'s layout is not aligned, so its document
        depends on the plan: one plan's cached document is not another's,
        while an aligned view serves one document to every plan."""
        db, session = splice_session()
        view = session.view(PARTY_DIRECTORY)
        assert not view.definition.layout.aligned
        unified = session.materialize(PARTY_DIRECTORY, "unified")
        served = session.materialize(PARTY_DIRECTORY, "fully-partitioned")
        assert served.xml != unified.xml
        assert tagged(served) == tagged(
            cold_run(db, PARTY_DIRECTORY, "fully-partitioned"))
        assert session.materialize(PARTY_DIRECTORY, "unified").xml == (
            unified.xml)
        assert view.document_cache.stats()["hits"] == 1
        session.materialize(QUERY_1, "unified")
        session.materialize(QUERY_1, "fully-partitioned")
        assert session.view(QUERY_1).document_cache.stats()["hits"] == 1

    def test_groups_the_tagger_does_not_confirm_are_not_kept(
            self, monkeypatch):
        """The top-level elements the tagger marks must be the groups the
        rows spell, one each: grouping two suppliers together fails it,
        and the document is tagged the ordinary way.  (The decoders are
        the process's view definition's: the test puts them back.)"""
        db, session = splice_session()
        view = session.view(QUERY_1)
        for spec in view.specs():
            decoder = view.definition.layout.decoder(spec)
            monkeypatch.setattr(
                decoder, "group_of",
                lambda row, key=decoder.group_of: key(row) // 2)
        served = session.materialize(QUERY_1)
        assert tagged(served) == tagged(cold_run(db, QUERY_1))
        assert len(view.instance_cache) == 0

    def test_two_threads_re_materialize_one_view(self):
        db, session = splice_session()
        session.materialize(QUERY_1)
        barrier = threading.Barrier(2, timeout=30)
        for write in range(4):
            session.mutate(("Supplier", "Customer")[write % 2], op="update",
                           rows=2, seed=write)
            # Each thread misses the document cache; both splice.
            session.view(QUERY_1).document_cache.discard_where(
                lambda key, value: True)
            served = [None, None]

            def read(slot):
                barrier.wait()
                served[slot] = session.materialize(QUERY_1)

            threads = [threading.Thread(target=read, args=(slot,))
                       for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            cold = tagged(cold_run(db, QUERY_1))
            assert [tagged(result) for result in served] == [cold, cold]

    def test_a_traced_splice_spans_only_the_retagged_groups(self):
        db, session = splice_session()
        session.materialize(QUERY_1)
        session.mutate("Supplier", op="update", rows=2, seed=3)
        obs = ObsOptions()
        traced = session.materialize(QUERY_1,
                                     options=ExecutionOptions(obs=obs))
        [splice] = spans_named(obs.tracer, "splice")
        groups = traced.xml.count("<supplier>")
        assert splice.attrs == {"groups": groups, "reused": groups - 2,
                                "retagged": 2}
        [decode] = spans_named(splice, "decode")
        [tag] = spans_named(splice, "tag")
        assert 0 < tag.attrs["elements"] < traced.tagger.elements_written
        counters = obs.metrics.snapshot()["counters"]
        assert counters["splice.reused"] == groups - 2
        assert counters["splice.retagged"] == 2
        assert counters["decode.instances"] == decode.attrs["instances"]
        assert counters["tag.elements"] == tag.attrs["elements"]
        assert tagged(traced) == tagged(cold_run(db, QUERY_1))
