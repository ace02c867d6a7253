"""Tests for the cross-plan result cache (repro.relational.cache).

The cache's contract is strict: a hit must replay the *exact* simulated
execution — byte-identical rows, ``server_ms``, ``rows_examined``, the
per-operator breakdown (including dict insertion order), and the same
:class:`TimeoutExceeded` at the same accumulated total.  These tests
compare cached engines against uncached ones across the paper workload
queries on both configurations' cost models, and check invalidation when
the underlying database mutates.

``TestBoundedCacheContract`` is the one statement of what the bounded maps
under it all do — bounds, recency, byte accounting, counters, threads —
run against every way ``src/`` instantiates :class:`BoundedCache`.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import (
    ExecutionError,
    StaleGenerationError,
    TimeoutExceeded,
)
from repro.core.partition import (
    Partition,
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.bench.queries import QUERY_1
from repro.bench.sweep import sweep_partitions
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.obs.metrics import MetricsRegistry
from repro.relational.cache import (
    SEEN,
    BoundedCache,
    CacheEntry,
    NodeResultCache,
    PlanCostCache,
    PlanResultCache,
    RowCount,
)
from repro.relational.connection import Connection, TransferModel
from repro.relational.engine import (
    CONFIG_A_COST_MODEL,
    CONFIG_B_COST_MODEL,
    CostModel,
    QueryEngine,
)
from repro.relational.database import synthesize_rows
from repro.session import Session
from repro.tpch.generator import TpchGenerator, TpchScale
from repro.xmlgen.splice import FragmentCache, Tagging
from repro.xmlgen.streams import XmlDocumentCache
from conftest import TINY_SCALE


def sample_partitions(tree):
    """A small but structurally diverse set of plans: unified, fully
    partitioned, and a couple of mixed cuts."""
    edges = sorted(child.index for _, child in tree.edges)
    return [
        unified_partition(tree),
        fully_partitioned(tree),
        Partition(edges[: len(edges) // 2]),
        Partition(edges[::2]),
    ]


def run_specs(engine, specs, budget_ms=None):
    """Execute every spec; returns (results, timeout_or_None) where a
    timeout is recorded as (spec index, budget, total)."""
    results = []
    for i, spec in enumerate(specs):
        try:
            results.append(engine.execute(spec.plan, budget_ms=budget_ms))
        except TimeoutExceeded as exc:
            return results, (i, exc.budget_ms, exc.elapsed_ms)
    return results, None


def assert_identical(cached, uncached):
    assert cached.rows == uncached.rows
    assert cached.columns == uncached.columns
    assert cached.server_ms == uncached.server_ms
    assert cached.rows_examined == uncached.rows_examined
    assert cached.breakdown == uncached.breakdown
    assert list(cached.breakdown) == list(uncached.breakdown)


class TestCachedExecutionIdentity:
    @pytest.mark.parametrize("cost_model", [
        CONFIG_A_COST_MODEL, CONFIG_B_COST_MODEL,
    ], ids=["config-a", "config-b"])
    @pytest.mark.parametrize("tree_fixture", ["q1_tree", "q2_tree"])
    def test_bit_identical_across_plans(
        self, request, tree_fixture, cost_model, tiny_db
    ):
        tree = request.getfixturevalue(tree_fixture)
        cached_engine = QueryEngine(
            tiny_db, cost_model, cache=PlanResultCache()
        )
        plain_engine = QueryEngine(tiny_db, cost_model)
        for style in (PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION):
            generator = SqlGenerator(
                tree, tiny_db.schema, style=style, reduce=True
            )
            for partition in sample_partitions(tree):
                for spec in generator.streams_for_partition(partition):
                    reference = plain_engine.execute(spec.plan)
                    first = cached_engine.execute(spec.plan)
                    replayed = cached_engine.execute(spec.plan)
                    assert_identical(first, reference)
                    assert_identical(replayed, reference)
        stats = cached_engine.cache.stats()
        assert stats.hits > 0  # shared subtrees + the explicit re-run
        assert stats.misses == stats.stores

    def test_timeout_replay_identical(self, q1_tree, tiny_db):
        generator = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        specs = generator.streams_for_partition(unified_partition(q1_tree))
        plain = QueryEngine(tiny_db, CostModel())
        reference, ref_timeout = run_specs(plain, specs, budget_ms=1.0)
        assert ref_timeout is not None
        cached = QueryEngine(tiny_db, CostModel(), cache=PlanResultCache())
        for _ in range(2):  # second pass replays the incomplete entry
            results, timeout = run_specs(cached, specs, budget_ms=1.0)
            assert timeout == ref_timeout
            for got, want in zip(results, reference):
                assert_identical(got, want)

    def test_incomplete_entry_upgrades_on_larger_budget(self, q1_tree, tiny_db):
        generator = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        spec = generator.streams_for_partition(unified_partition(q1_tree))[0]
        plain = QueryEngine(tiny_db, CostModel())
        reference = plain.execute(spec.plan)
        cached = QueryEngine(tiny_db, CostModel(), cache=PlanResultCache())
        with pytest.raises(TimeoutExceeded):
            cached.execute(spec.plan, budget_ms=1.0)
        # The stored prefix cannot prove a timeout under no budget, so the
        # full run happens and upgrades the entry to a complete one.
        assert_identical(cached.execute(spec.plan), reference)
        assert_identical(cached.execute(spec.plan), reference)
        assert cached.cache.stats().hits == 1

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_property_random_plan_and_budget(self, data, q1_tree, tiny_db):
        """Any (partition, style, budget) behaves identically cached and
        uncached — same rows/timings on success, same timeout otherwise."""
        partitions = list(enumerate_partitions(q1_tree))
        partition = data.draw(st.sampled_from(partitions))
        style = data.draw(st.sampled_from(list(PlanStyle)))
        budget_ms = data.draw(
            st.sampled_from([None, 0.5, 2.0, 25.0, 100000.0])
        )
        generator = SqlGenerator(
            q1_tree, tiny_db.schema, style=style, reduce=True
        )
        specs = generator.streams_for_partition(partition)
        plain = QueryEngine(tiny_db, CONFIG_A_COST_MODEL)
        cached = QueryEngine(
            tiny_db, CONFIG_A_COST_MODEL, cache=PlanResultCache()
        )
        reference, ref_timeout = run_specs(plain, specs, budget_ms=budget_ms)
        for _ in range(2):
            results, timeout = run_specs(cached, specs, budget_ms=budget_ms)
            assert timeout == ref_timeout
            for got, want in zip(results, reference):
                assert_identical(got, want)


class _MissTogether(PlanResultCache):
    """A plan cache whose lookups wait until every thread has looked up,
    so the threads miss at once; it keeps each recorded charge log."""

    def __init__(self, threads):
        super().__init__()
        self.barrier = threading.Barrier(threads)
        self.logs = []

    def lookup(self, key, spent_ms=0.0, budget_ms=None):
        entry = super().lookup(key, spent_ms, budget_ms)
        self.barrier.wait(30)
        return entry

    def record(self, key, plan, rows, charge_log, row_bytes=None):
        self.logs.append(tuple(charge_log))
        return super().record(key, plan, rows, charge_log, row_bytes)


class TestConcurrentMisses:
    """The plan cache has no guard of its own: threads that miss one plan
    at once each evaluate it, to the same rows and charges, and the cache
    ends with one entry.  (The server coalesces identical requests above
    it.)"""

    @pytest.mark.parametrize("mode", ["batch", "tuple"])
    def test_each_thread_evaluates_to_the_same_result(
            self, mode, q1_tree, tiny_db):
        spec = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            unified_partition(q1_tree))[0]
        reference = QueryEngine(tiny_db, CostModel(), engine=mode).execute(
            spec.plan)
        n = 4
        cache = _MissTogether(n)
        engine = QueryEngine(tiny_db, CostModel(), cache=cache, engine=mode)
        results, errors = [None] * n, []

        def run(i):
            try:
                results[i] = engine.execute(spec.plan)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the evaluations finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for result in results:
            assert_identical(result, reference)
        assert len(cache.logs) == n and len(set(cache.logs)) == 1
        assert len({result.server_ms for result in results}) == 1
        assert len(cache) == 1
        assert cache.stats().misses == cache.stats().stores == n


class TestInvalidation:
    def make_db(self):
        scale = TpchScale(suppliers=4, parts=6, customers=4, orders=8)
        return TpchGenerator(scale=scale, seed=7).generate()

    def test_mutation_bumps_generation_and_misses(self, q1_tree):
        db = self.make_db()
        engine = QueryEngine(db, CostModel(), cache=PlanResultCache())
        spec = SqlGenerator(q1_tree, db.schema).streams_for_partition(
            unified_partition(q1_tree)
        )[0]
        before = engine.execute(spec.plan)
        generation = db.table_generations()["Nation"]
        nation = db.table("Nation")
        nation.insert(nationkey=99, name="ATLANTIS", regionkey=0)
        assert db.table_generations()["Nation"] == generation + 1
        after = engine.execute(spec.plan)
        # No stale hit: the second execution really ran (two misses).
        assert engine.cache.stats().hits == 0
        assert engine.cache.stats().misses == 2
        assert after.rows != before.rows or after.server_ms != before.server_ms

    def test_distinct_databases_never_collide(self, q1_tree):
        db_a = self.make_db()
        db_b = self.make_db()
        cache = PlanResultCache()
        spec = SqlGenerator(q1_tree, db_a.schema).streams_for_partition(
            unified_partition(q1_tree)
        )[0]
        QueryEngine(db_a, CostModel(), cache=cache).execute(spec.plan)
        QueryEngine(db_b, CostModel(), cache=cache).execute(spec.plan)
        assert cache.stats().hits == 0
        assert cache.stats().misses == 2

    def test_cost_model_is_part_of_the_key(self, q1_tree, tiny_db):
        cache = PlanResultCache()
        spec = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            unified_partition(q1_tree)
        )[0]
        a = QueryEngine(tiny_db, CONFIG_A_COST_MODEL, cache=cache)
        b = QueryEngine(tiny_db, CONFIG_B_COST_MODEL, cache=cache)
        result_a = a.execute(spec.plan)
        result_b = b.execute(spec.plan)
        assert cache.stats().hits == 0
        assert result_a.server_ms != result_b.server_ms


class TestCacheBookkeeping:
    def entry(self, nbytes, tag):
        return CacheEntry(
            rows=[(tag,)], charge_log=(("scan", 1.0, 1),),
            complete=True, nbytes=nbytes,
        )

    def test_incomplete_entry_needs_provable_timeout(self):
        cache = PlanResultCache()
        entry = CacheEntry(
            rows=None, charge_log=(("scan", 5.0, 10), ("sort", 5.0, 0)),
            complete=False, nbytes=128,
        )
        cache.store(("plan",), entry)
        assert cache.lookup(("plan",), spent_ms=0.0, budget_ms=None) is None
        assert cache.lookup(("plan",), spent_ms=0.0, budget_ms=20.0) is None
        hit = cache.lookup(("plan",), spent_ms=0.0, budget_ms=8.0)
        assert hit is entry
        assert hit.replay_raises(0.0, 8.0)
        assert not hit.replay_raises(0.0, 10.0)  # exactly on budget: no raise


class _FakeBatch:
    def __init__(self, length):
        self.length = length
        self.arity = 1


def _store_seen(cache, key, value):
    """The node cache's write as its second caller sees it.  The cache
    keeps a value from the second store of its key on
    (``TestNodeAdmission``), so a key it has not seen is shown to it once
    first; from there it is a bounded map like the others.  Returns what
    both stores evicted."""
    evicted = 0
    if cache.peek(key) is None:
        evicted = cache.store(key, value)
    return evicted + cache.store(key, value)


class _Kind:
    """One way the package instantiates :class:`BoundedCache`, behind one
    face: ``make(max_entries, max_bytes)`` builds it, ``value(size)`` is
    something to store that weighs ``size`` where the kind weighs values
    at all (``weighs``), ``get``/``store`` are its own read and write."""

    def __init__(self, name, make, value, get=BoundedCache.get,
                 store=BoundedCache.store, entry_bound=True, weighs=True):
        self.name = name
        self.make = make
        self.value = value
        self.get = get
        self.store = store
        self.entry_bound = entry_bound
        self.weighs = weighs

    def holding_three(self):
        """A cache with room for exactly three ``value(300)``."""
        if self.entry_bound:
            return self.make(3, None)
        return self.make(None, 1000)

    def __repr__(self):
        return self.name


KINDS = [
    # The engine's compiled plans, the session's view and dedup maps, the
    # process's view definitions, a layout's decoders, the estimator's
    # estimates (whose request counters and counting ``clear`` are
    # tests/test_estimator.py's).
    _Kind("bare",
          lambda n, b: BoundedCache("t", max_entries=n, max_bytes=b,
                                    size_of=len),
          lambda size: "x" * size),
    _Kind("plan",
          lambda n, b: PlanResultCache(max_bytes=b),
          lambda size: CacheEntry(rows=[], charge_log=(), complete=True,
                                  nbytes=size),
          get=PlanResultCache.lookup, entry_bound=False),
    _Kind("node",
          lambda n, b: NodeResultCache(max_entries=n),
          _FakeBatch,
          get=NodeResultCache.get, store=_store_seen, weighs=False),
    _Kind("instances",
          lambda n, b: FragmentCache(max_entries=n, max_bytes=b),
          lambda size: Tagging("x" * size, (), {})),
    _Kind("documents",
          lambda n, b: XmlDocumentCache(max_entries=n, max_bytes=b),
          lambda size: ("x" * size, None)),
]
ENTRY_BOUND = [kind for kind in KINDS if kind.entry_bound]
WEIGHING = [kind for kind in KINDS if kind.weighs]


class TestBoundedCacheContract:
    """What every bounded map in ``src/`` does, asserted once."""

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_evicts_least_recently_used_first(self, kind):
        cache = kind.holding_three()
        for i in range(3):
            assert kind.store(cache, i, kind.value(300)) == 0
        assert kind.get(cache, 0) is not None  # refresh the oldest
        assert kind.store(cache, 3, kind.value(300)) == 1
        assert len(cache) == 3
        assert cache.stats().evictions == 1
        assert cache.peek(0) is not None and cache.peek(1) is None
        assert cache.stats().peak_entries == 3

    @pytest.mark.parametrize("kind", ENTRY_BOUND, ids=repr)
    def test_entry_bound(self, kind):
        cache = kind.make(3, None)
        for i in range(6):
            kind.store(cache, i, kind.value(1))
        stats = cache.stats()
        assert (len(cache), stats.entries, stats.evictions) == (3, 3, 3)
        assert [cache.peek(i) is not None for i in range(6)] == (
            [False] * 3 + [True] * 3
        )

    @pytest.mark.parametrize("kind", WEIGHING, ids=repr)
    def test_byte_bound(self, kind):
        cache = kind.make(None, 1000)
        for i in range(4):
            kind.store(cache, i, kind.value(300))
        stats = cache.stats()
        assert (len(cache), stats.evictions) == (3, 1)
        assert stats.current_bytes == stats["bytes"] == 900
        assert stats.max_bytes == 1000
        assert cache.peek(0) is None

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_replacing_keeps_byte_accounting_exact(self, kind):
        cache, fresh = kind.make(None, None), kind.make(None, None)
        kind.store(cache, "k", kind.value(300))
        kind.store(cache, "k", kind.value(500))
        kind.store(fresh, "k", kind.value(500))
        stats = cache.stats()
        # One store more than the cache that stored the key once.
        assert (stats.entries, stats.stores - fresh.stats().stores) == (1, 1)
        assert stats.current_bytes == fresh.stats().current_bytes
        if kind.weighs:
            assert stats.current_bytes == 500

    @pytest.mark.parametrize("kind", WEIGHING, ids=repr)
    def test_oversize_value_rejected(self, kind):
        cache = kind.make(None, 100)
        kind.store(cache, "k", kind.value(60))
        assert kind.store(cache, "k", kind.value(500)) == 0
        kind.store(cache, "big", kind.value(101))
        stats = cache.stats()
        assert (stats.oversize_rejections, stats.evictions) == (2, 0)
        assert (len(cache), stats.current_bytes) == (1, 60)

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_every_get_is_a_hit_or_a_miss(self, kind):
        cache = kind.make(None, None)
        for i in range(4):
            kind.store(cache, i, kind.value(10))
        found = [kind.get(cache, i) is not None for i in range(-3, 7)]
        cache.peek(0), cache.peek(99)  # not requests
        stats = cache.stats()
        assert stats.hits == sum(found) == 4
        assert stats.hits + stats.misses == stats.requests == len(found)
        assert stats["hits"] == 4 and stats.as_dict()["hit_rate"] == 0.4

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_discard_where_counts_invalidations(self, kind):
        cache, fresh = kind.make(None, None), kind.make(None, None)
        for i in range(6):
            kind.store(cache, i, kind.value(100))
        assert cache.discard_where(lambda key, value: key % 2) == 3
        for i in (0, 2, 4):
            kind.store(fresh, i, kind.value(100))
        stats = cache.stats()
        assert (stats.invalidations, stats.evictions, len(cache)) == (3, 0, 3)
        assert stats.current_bytes == fresh.stats().current_bytes
        assert cache.peek(1) is None and cache.peek(2) is not None

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_discard_stale_retires_dead_generations_only(self, kind):
        tiny = TpchScale(suppliers=2, parts=2, customers=2, orders=2)
        db, other = (TpchGenerator(scale=tiny, seed=1).generate()
                     for _ in range(2))
        cache = kind.make(None, None)
        keys = {
            "written": ("p", db.dependency_key({"Nation", "Region"})),
            "untouched": ("p", db.dependency_key({"Region"})),
            "elsewhere": ("p", other.dependency_key({"Nation"})),
            "opaque": ("p", 1),
            "bare": 7,
        }
        for key in keys.values():
            kind.store(cache, key, kind.value(100))
        assert cache.discard_stale(db) == 0
        db.insert("Nation", *synthesize_rows(db, "Nation", 1)[0])
        other.insert("Region", *synthesize_rows(other, "Region", 1)[0])
        assert cache.discard_stale(db) == 1
        assert cache.discard_stale(db, at=0) == 0
        assert {key for key, _ in cache.items()} == (
            set(keys.values()) - {keys["written"]})
        assert cache.discard_stale(other) == 0   # reads Nation, not Region
        stats = cache.stats()
        assert (stats.invalidations, stats.entries) == (1, 4)
        assert stats.requests == 0      # neither sweep nor items() asks

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_eight_threads(self, kind):
        cache = kind.holding_three()
        rounds = 300

        def work(seed):
            for i in range(rounds):
                key = (seed + i) % 7
                if kind.get(cache, key) is None:
                    kind.store(cache, key, kind.value(300))

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        stats = cache.stats()
        assert stats.requests == 8 * rounds
        assert stats.entries == len(cache) <= 3 == stats.peak_entries
        assert stats.stores >= stats.entries + stats.evictions
        assert cache.discard_where(lambda key, value: True) == stats.entries
        assert cache.stats().current_bytes == 0


class TestNodeAdmission:
    """The node cache admits a sub-plan result on its second computation:
    a single-use intermediate dies with the kernel call that read it."""

    def test_second_store_keeps_third_lookup_hits(self):
        cache = NodeResultCache()
        first, second = _FakeBatch(10), _FakeBatch(10)
        assert cache.get("fp") is None
        cache.store("fp", first)
        # Seen, not kept: a marker entry that weighs nothing and that no
        # lookup returns.
        assert cache.peek("fp") is SEEN
        assert cache.get("fp") is None
        assert (len(cache), cache.stats().current_bytes) == (1, 0)
        cache.store("fp", second)
        assert cache.get("fp") is second
        stats = cache.stats()
        assert (stats.stores, stats.hits, stats.misses) == (2, 1, 2)
        assert (stats.entries, stats.current_bytes) == (1, 64 + 16 * 10)

    def test_markers_are_bounded_with_the_values(self):
        cache = NodeResultCache(max_entries=3)
        for i in range(6):
            cache.store(i, _FakeBatch(1))
        stats = cache.stats()
        assert (len(cache), stats.evictions, stats.peak_entries) == (3, 3, 3)
        assert cache.peek(2) is None and cache.peek(3) is not None
        # Key 0's marker was evicted: its next store is a first one again.
        cache.store(0, _FakeBatch(1))
        assert cache.get(0) is None

    def test_engine_keeps_from_the_second_execution(self, q1_tree, tiny_db):
        """A sweep that runs one plan three times, uncached so that each
        run executes: the first leaves markers, the second keeps the
        values where they were seen, the third hits every lookup — and
        each times the plan as the interpreter does.  Executed once more
        on the sweep's cache, the plan is served every lookup and returns
        the interpreter's rows, timings and breakdown."""
        partitions = [unified_partition(q1_tree)] * 3
        reference = sweep_partitions(
            q1_tree, tiny_db.schema,
            Connection(tiny_db, CostModel(), engine="tuple"),
            partitions=partitions, cache=False)
        connection = Connection(tiny_db, CostModel())
        seen = []
        swept = sweep_partitions(
            q1_tree, tiny_db.schema, connection, partitions=partitions,
            cache=False, progress=lambda done, total: seen.append(
                connection.engine.node_cache.stats()))
        assert swept.timings == reference.timings
        first, second, third = seen
        assert first.hits == 0 and first.stores == first.misses > 0
        assert first.current_bytes == 0         # markers only
        assert second.hits == 0 and second.current_bytes > 0
        assert second.entries == first.entries  # kept where it was seen
        assert third.hits - second.hits == first.misses   # every lookup
        assert third.stores == second.stores
        kept = [value for _, value in connection.engine.node_cache.items()]
        assert all(value is not SEEN for value in kept)
        spec = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            partitions[0])[0]
        engine = connection.engine
        engine.results = engine.node_cache    # as the sweep installed it
        try:
            served = engine.execute(spec.plan)
        finally:
            engine.results = None
        assert_identical(served, QueryEngine(
            tiny_db, CostModel(), engine="tuple").execute(spec.plan))
        fourth = engine.node_cache.stats()
        assert fourth.hits - third.hits == first.misses
        assert fourth.stores == third.stores


class TestOnlyASweepKeeps:
    """Sub-plan results are kept across executions only within a sweep:
    the node cache is the sweep's, and starts empty with it."""

    def test_executions_outside_a_sweep_keep_nothing(self, q1_tree,
                                                     tiny_db):
        session = Session(Connection(tiny_db, CostModel()), cache=False)
        engine = session.connection.engine
        plan = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            unified_partition(q1_tree))[0].plan
        metrics = MetricsRegistry()

        def run_all():
            for _ in range(3):
                engine.execute(plan, metrics=metrics)
                session.materialize(QUERY_1, "unified")

        run_all()
        assert engine.results is None
        assert len(engine.node_cache) == 0
        assert engine.node_cache.stats().requests == 0
        assert engine.node_cache.stats().stores == 0
        session.sweep(QUERY_1, partitions=[unified_partition(q1_tree)] * 3,
                      cache=False)
        # The sweep's cache stays on the engine for its stats; nothing
        # after the sweep reads or feeds it.
        kept = engine.node_cache
        assert engine.results is None and kept.stats().hits > 0
        before = kept.stats()
        run_all()
        assert engine.node_cache is kept and kept.stats() == before
        assert not [name for name in metrics.snapshot()["counters"]
                    if name.startswith("node_cache.")]

    def test_a_sweep_after_a_write_starts_empty(self, q1_tree):
        database = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        partitions = list(enumerate_partitions(q1_tree))[:24]
        connection = Connection(database, CostModel())
        sweep_partitions(q1_tree, database.schema, connection,
                         partitions=partitions, cache=False)
        previous = connection.engine.node_cache
        before = previous.stats()
        assert [fp for fp, value in previous.items() if value is not SEEN]
        [row] = synthesize_rows(database, "Supplier", 1, seed=3)
        database.insert("Supplier", *row)
        after = sweep_partitions(q1_tree, database.schema, connection,
                                 partitions=partitions, cache=False)
        fresh_connection = Connection(database, CostModel())
        fresh = sweep_partitions(q1_tree, database.schema, fresh_connection,
                                 partitions=partitions, cache=False)
        assert after.timings == fresh.timings
        # Its own cache, not the last one, and counted as a fresh
        # engine's: no value the previous sweep kept was read.
        assert connection.engine.node_cache is not previous
        assert previous.stats() == before
        assert (connection.engine.node_cache.stats()
                == fresh_connection.engine.node_cache.stats())

    def test_a_write_during_a_sweep_sets_its_cache_aside(self, q1_tree):
        """Another execution on the engine, after a write in the middle of
        a sweep, neither reads nor feeds the sweep's kept values and
        returns the written data; the sweep then refuses to go on."""
        database = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        connection = Connection(database, CostModel())
        engine = connection.engine
        plan = SqlGenerator(q1_tree, database.schema).streams_for_partition(
            unified_partition(q1_tree))[0].plan
        before = engine.execute(plan).rows
        served = []

        def write_then_read(done, total):
            if done == 2:       # the second run kept what it saw
                [row] = synthesize_rows(database, "Supplier", 1, seed=3)
                database.insert("Supplier", *row)
                stats = engine.results.stats()
                served.append(engine.execute(plan).rows)
                assert engine.results.stats() == stats

        with pytest.raises(StaleGenerationError):
            sweep_partitions(
                q1_tree, database.schema, connection,
                partitions=[unified_partition(q1_tree)] * 3, cache=False,
                progress=write_then_read)
        reference = QueryEngine(database, CostModel(),
                                engine="tuple").execute(plan).rows
        assert served == [reference] and reference != before


class TestCostOnlyEntries:
    """A :class:`PlanCostCache` entry replays the charge log and keeps the
    row count and the transfer sums, not the rows."""

    @pytest.fixture()
    def specs(self, q1_tree, tiny_db):
        return SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            fully_partitioned(q1_tree))

    def test_row_count_answers_len_and_refuses_iteration(self):
        rows = RowCount(3)
        assert len(rows) == 3 and not RowCount(0)
        with pytest.raises(ExecutionError, match="not kept"):
            iter(rows)
        with pytest.raises(ExecutionError):
            list(rows)

    def test_store_drops_the_rows_of_a_complete_entry(self):
        cache = PlanCostCache()
        log = (("scan", 1.0, 1), ("sort", 2.0, 0))
        complete = CacheEntry(rows=[(1,), (2,)], charge_log=log,
                              complete=True, nbytes=10_000)
        timed_out = CacheEntry(rows=None, charge_log=log, complete=False,
                               nbytes=128)
        cache.store("done", complete)
        cache.store("late", timed_out)
        assert isinstance(complete.rows, RowCount) and len(complete.rows) == 2
        assert complete.charge_log == log
        assert timed_out.rows is None
        assert cache.stats().current_bytes == (128 + 64 * 2) + 128

    def test_replay_is_identical_but_for_the_rows(self, specs, tiny_db):
        plain = QueryEngine(tiny_db, CostModel())
        costed = QueryEngine(tiny_db, CostModel(), cache=PlanCostCache())
        for spec in specs:
            reference = plain.execute(spec.plan)
            assert_identical(costed.execute(spec.plan), reference)
            replayed = costed.execute(spec.plan)
            assert isinstance(replayed.rows, RowCount)
            assert len(replayed.rows) == len(reference.rows)
            replayed.rows = reference.rows
            assert_identical(replayed, reference)

    def test_stream_has_timings_and_length_not_rows(self, specs, tiny_db):
        connection = Connection(tiny_db, CostModel(), cache=PlanCostCache())
        spec = specs[0]
        cold = connection.execute(spec.plan, compact_rows=spec.compact)
        replayed = connection.execute(spec.plan, compact_rows=spec.compact)
        assert list(cold) and len(replayed) == len(cold) == replayed.rows_read
        assert (replayed.server_ms, replayed.transfer_ms) == (
            cold.server_ms, cold.transfer_ms)
        with pytest.raises(ExecutionError, match="not kept"):
            list(replayed)

    def test_unrecorded_transfer_sum_is_re_evaluated(self, specs, tiny_db):
        """Connections with different transfer models (replicas) and row
        formats share one cost-only cache: whichever stored the entry,
        each reports what a cache-less connection with its model does."""
        models = [TransferModel(), TransferModel(row_ms=1.0, byte_ms=0.02)]
        cache = PlanCostCache()
        shared = [Connection(tiny_db, CostModel(), model, cache=cache)
                  for model in models]
        for i, spec in enumerate(specs):
            order = shared[::-1] if i % 2 else shared
            for compact in (spec.compact, not spec.compact):
                for connection in order + order:
                    want = Connection(
                        tiny_db, CostModel(), connection.transfer_model,
                    ).execute(spec.plan, compact_rows=compact)
                    got = connection.execute(spec.plan, compact_rows=compact)
                    assert (got.server_ms, got.transfer_ms, len(got)) == (
                        want.server_ms, want.transfer_ms, len(want))
        assert cache.stats().stores == len(cache) == len(specs)
        for _, entry in cache.items():
            assert len(entry.transfer_sums) == 4
