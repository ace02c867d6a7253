"""Prepared plans: a partition's stream specs are generated once per process.

A view's data-independent half is its
:class:`~repro.core.silkroute.ViewDefinition`, one per RXL text and
schema structure in the process (``VIEW_DEFINITIONS``): it keeps one
:class:`~repro.core.sqlgen.SqlGenerator` per ``(style, reduce, keep)``, so
execution, ``explain``, greedy costing and degradation all see the same
:class:`~repro.core.sqlgen.StreamSpec` objects — from any number of
threads and sessions — while each session's planner still asks its own
estimator, and a request's trace holds the generation work of that
request only.  Tests that count first-use work start from an empty
definition cache (``fresh_definitions``).
"""

import gc
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.core.silkroute as silkroute_module
import repro.core.sqlgen as sqlgen_module
from repro.bench.queries import QUERY_1, QUERY_2
from repro.bench.sweep import sweep_partitions
from repro.core.options import ExecutionOptions
from repro.core.partition import Partition
from repro.core.silkroute import (
    VIEW_DEFINITIONS,
    SilkRoute,
    ViewDefinition,
    view_definition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.obs import NULL_TRACER, ObsOptions
from repro.relational.batch import Batch
from repro.relational.connection import Connection
from repro.relational.database import Database
from repro.relational.dispatch import execute_specs
from repro.relational.engine import CostModel
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience
from repro.relational.table import Table
from repro.session import Session
from repro.tpch.configs import CONFIG_A, build_configuration
from repro.tpch.schema import tpch_schema
from conftest import spans_named


@pytest.fixture
def fresh_definitions():
    """An empty process-wide definition cache: the next view of a text is
    defined, and its specs generated, from scratch."""
    VIEW_DEFINITIONS.discard_where(lambda key, value: True)


@pytest.fixture
def make_view(tiny_db, tiny_estimator):
    def make():
        silk = SilkRoute(Connection(tiny_db, CostModel()),
                         estimator=tiny_estimator, cache=True)
        return silk.define_view(QUERY_1)
    return make


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` (patched for the test)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneGeneratorPerView:
    def test_prepare_twice_returns_the_same_specs(self, make_view):
        view = make_view()
        opts = ExecutionOptions()
        first = view.specs(view.fully_partitioned(), opts)
        again = view.specs(view.fully_partitioned(), opts)
        assert len(first) == 10
        assert all(a is b for a, b in zip(first, again))
        # ... so what a spec works out on first use is worked out once.
        assert first[0].sql is again[0].sql
        assert first[0].column_names is again[0].column_names
        # Other options, other generator.
        plain = view.specs(view.fully_partitioned(),
                           ExecutionOptions(reduce=False))
        assert all(a is not b for a, b in zip(first, plain))

    def test_dispatch_renders_no_sql(self, make_view, fresh_definitions,
                                     monkeypatch):
        """Nothing reads the SQL text off a dispatched stream, so the
        dispatch does not render it (a sweep never does); the report
        takes it from the spec."""
        rendered = counting(monkeypatch, sqlgen_module, "render_sql")
        view = make_view()
        specs = view.specs("fully-partitioned")
        result = execute_specs(view.silkroute.connection, specs)
        assert [stream.sql for stream in result.streams] == [None] * 10
        assert rendered == []
        report = view.materialize("fully-partitioned").report
        assert [stream.sql for stream in report.streams] == [
            spec.sql for spec in specs]

    def test_explain_costing_and_degradation_see_them(self, make_view,
                                                      fresh_definitions):
        view = make_view()
        opts = ExecutionOptions()
        planner = view._planner(opts)
        prepared = planner.generator._stream_cache

        [unified] = view.specs(view.unified_partition(), opts)
        assert view.explain("unified", options=opts) == [unified.sql]
        assert list(prepared.values()) == [unified]

        # Greedy costs the generator's own specs: the unified component it
        # asks about is the spec above, not a second rendering of it.
        plan = view.greedy_plan(options=opts)
        assert planner._component_plan(
            frozenset(node.index for node in view.tree.nodes), NULL_TRACER,
        ) is unified.plan
        chosen = view.specs(plan.recommended(), opts)
        assert all(spec in prepared.values() for spec in chosen)
        known = len(prepared)
        view.materialize(options=opts)
        assert len(prepared) == known       # nothing generated to serve it

    def test_a_degraded_replan_executes_the_generators_specs(self,
                                                             make_view):
        view = make_view()
        opts = ExecutionOptions()
        prepared = view._planner(opts).generator._stream_cache
        opts = replace(opts, resilience=Resilience(
            retry=RetryPolicy(max_attempts=2),
            faults=FaultPolicy(seed=7, error_rate=0.4),
        ))
        partition = view.unified_partition()
        planned = view.specs(partition, opts)
        outcome = view._dispatch(partition, planned, opts)
        report = view._outcome_report(partition, outcome, opts)
        specs = outcome.specs
        assert report.resilience.degraded_streams and len(specs) > 1
        assert all(
            any(spec is kept for kept in prepared.values()) for spec in specs
        )


def report_facts(result):
    report = result.report
    return (
        result.xml, report.n_streams, report.query_ms, report.transfer_ms,
        [(s.label, s.rows, s.server_ms, s.transfer_ms, s.sql)
         for s in report.streams],
    )


class TestSharedAcrossThreads:
    THREADS = 8
    PARTITIONS = (
        None, "unified", "fully-partitioned",
        Partition([(1, 4)]), Partition([(1, 1), (1, 4), (1, 4, 2)]),
    )

    def test_raced_first_use_matches_a_fresh_view_each(self, make_view):
        variants = [
            (partition, style)
            for style in PlanStyle for partition in self.PARTITIONS
        ]
        expected = [
            report_facts(make_view().materialize(partition, style=style))
            for partition, style in variants
        ]
        VIEW_DEFINITIONS.discard_where(lambda key, value: True)    # the first uses below are raced
        shared = make_view()
        barrier = threading.Barrier(self.THREADS)

        def client(offset):
            barrier.wait(timeout=30)
            order = variants[offset:] + variants[:offset]
            return [
                (variants.index(variant),
                 report_facts(shared.materialize(variant[0],
                                                 style=variant[1])))
                for variant in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(self.THREADS) as pool:
                results = list(pool.map(client, range(self.THREADS),
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == self.THREADS
        for served in results:
            assert len(served) == len(variants)
            for index, facts in served:
                assert facts == expected[index], variants[index]
        # One planner and one generator per style survived the races.
        assert len(shared._planners) == len(PlanStyle)
        assert {planner.generator for planner in shared._planners.values()} \
            == {shared.definition.generator(style, True) for style in PlanStyle}


class TestTracing:
    def test_each_request_traces_its_own_generation(self, make_view,
                                                    fresh_definitions):
        view = make_view()
        first, second = ObsOptions(), ObsOptions()
        for obs in (first, second):
            view.materialize("unified", options=ExecutionOptions(obs=obs))
        for obs in (first, second):
            [sqlgen] = spans_named(obs.tracer, "sqlgen")
            assert sqlgen.attrs["streams"] == 1
        # Only the request that missed reduced anything.
        assert len(spans_named(first.tracer, "reduce")) == 1
        assert spans_named(second.tracer, "reduce") == []

    def test_costing_traces_the_reduction_it_causes(self, make_view,
                                                    fresh_definitions):
        view = make_view()
        first, second = ObsOptions(), ObsOptions()
        for obs in (first, second):
            view.materialize(options=ExecutionOptions(obs=obs))
        [plan] = spans_named(first.tracer, "plan")
        assert {child.name for child in plan.children} == {"reduce"}
        assert spans_named(second.tracer, "reduce") == []


class TestOneDefinitionPerProcess:
    PARTITIONS = (None, "unified", "fully-partitioned")

    @staticmethod
    def facts(result):
        return result.xml, result.query_ms, result.transfer_ms

    def test_a_second_session_compiles_nothing(self, tiny_db,
                                               fresh_definitions,
                                               monkeypatch):
        """A fresh session (new connection, same database) over what an
        earlier one served defines no view and generates no spec: it
        reuses the definition and its very specs, and still asks its own
        estimator about every component."""
        misses = VIEW_DEFINITIONS.stats().misses
        reference = Session(Connection(tiny_db, CostModel(), engine="tuple"))
        for query in (QUERY_1, QUERY_2):
            for partition in self.PARTITIONS:
                first = Session(Connection(tiny_db, CostModel()))
                served = first.materialize(query, partition)
                before = VIEW_DEFINITIONS.stats()
                parsed = counting(monkeypatch, silkroute_module, "parse_rxl")
                reduced = counting(monkeypatch, sqlgen_module,
                                   "reduce_subtree")
                second = Session(Connection(tiny_db, CostModel()))
                again = second.materialize(query, partition)
                assert VIEW_DEFINITIONS.stats().misses == before.misses
                assert parsed == [] and reduced == []
                monkeypatch.undo()
                views = first.view(query), second.view(query)
                assert views[0] is not views[1]
                assert views[0].definition is views[1].definition
                first_specs, second_specs = (
                    view.specs(partition) for view in views)
                assert all(a is b for a, b in zip(first_specs, second_specs))
                assert self.facts(again) == self.facts(served) \
                    == self.facts(reference.materialize(query, partition))
                if partition is None:
                    plans = [view._planner(ExecutionOptions()).family
                             for view in views]
                    assert plans[0] == plans[1]
                    assert plans[1].oracle_requests > 0
        assert VIEW_DEFINITIONS.stats().misses == misses + 2

    def test_a_second_session_sweeps_without_generating(self, tiny_db,
                                                        fresh_definitions,
                                                        monkeypatch):
        """A fresh session sweeps from the definition an earlier session's
        sweeps filled: it builds no spec and lowers no plan, and its
        timings are those of a sweep over a bare tree, cached or not."""
        variants = [(query, reduce, style) for query in (QUERY_1, QUERY_2)
                    for reduce in (False, True) for style in PlanStyle]
        first = Session(Connection(tiny_db, CostModel()))
        for query, reduce, style in variants:
            first.sweep(query, reduce=reduce, style=style)

        def programs():
            return {id(spec): (spec, getattr(spec.plan, "_program", None))
                    for query in (QUERY_1, QUERY_2)
                    for generator in first.view(query).definition
                    ._generators.values()
                    for spec in generator._stream_cache.values()}

        before = programs()
        built = counting(monkeypatch, SqlGenerator, "_build_stream")
        second = Session(Connection(tiny_db, CostModel()))
        swept = {variant: second.sweep(variant[0], reduce=variant[1],
                                       style=variant[2]).sweep
                 for variant in variants}
        assert built == []
        monkeypatch.undo()
        after = programs()
        assert after.keys() == before.keys()
        assert all(after[key][1] is program is not None
                   for key, (_, program) in before.items())
        for (query, reduce, style), sweep in swept.items():
            tree = second.view(query).tree
            for cache in (True, False):
                reference = sweep_partitions(
                    tree, tiny_db.schema, Connection(tiny_db, CostModel()),
                    cache=cache, definition=ViewDefinition(tree, tiny_db.schema),
                    reduce=reduce, style=style)
                assert repr(reference.timings) == repr(sweep.timings)

    def test_schema_structure_keys_the_definition(self):
        """Equal schemas share a definition whatever their identity; a
        foreign key that may be NULL moves the key, and the labels (C2)."""
        databases = [build_configuration(CONFIG_A)[0] for _ in range(2)]
        assert databases[0].schema is not databases[1].schema
        views = [SilkRoute(Connection(db, CostModel())).define_view(QUERY_1)
                 for db in databases]
        assert views[0].definition is views[1].definition

        schema = tpch_schema()
        enforced = view_definition(QUERY_1, schema)
        assert enforced is views[0].definition
        position, fk = next(
            (i, fk) for i, fk in enumerate(schema.foreign_keys)
            if (fk.table, fk.ref_table) == ("Supplier", "Nation"))
        schema.foreign_keys[position] = replace(fk, not_null=False)
        nullable = view_definition(QUERY_1, schema)
        assert nullable is not enforced
        labels = [{node.sfi: node.label for node in d.tree.nodes}
                  for d in (enforced, nullable)]
        changed = {sfi for sfi in labels[0] if labels[0][sfi] != labels[1][sfi]}
        assert changed and all(labels[0][sfi] == "1" for sfi in changed)
        assert view_definition(QUERY_1, schema) is nullable

    def test_a_definition_holds_no_rows(self, tiny_db, tiny_estimator):
        """After exports, full sweeps (with and without the sweep's cache)
        and a write, with the session gone, nothing the definitions reach
        is a row batch, a table or a database: no node-cache batch and no
        table index hangs off an operator the sweeps share."""
        session = Session(Connection(tiny_db, CostModel()),
                          estimator=tiny_estimator)
        for query in (QUERY_1, QUERY_2):
            session.materialize(query)
            session.materialize(query, "fully-partitioned",
                                style=PlanStyle.OUTER_UNION)
        for query in (QUERY_1, QUERY_2):
            for cache in (True, False):
                session.sweep(query, cache=cache)
        session.mutate("Supplier", op="update", rows=1, seed=3)
        session.materialize(QUERY_1)
        rows = {id(table.rows) for table in tiny_db.tables.values()}
        del session
        gc.collect()
        modules = {id(vars(m)) for m in list(sys.modules.values())}
        seen, stack, reached = set(), [VIEW_DEFINITIONS], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or id(obj) in modules or isinstance(
                    obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            reached += 1
            assert not isinstance(obj, (Batch, Table, Database)), obj
            assert id(obj) not in rows
            stack.extend(gc.get_referents(obj))
        assert reached > 10_000      # the walk went through the specs
