"""Prepared plans: a view generates a partition's stream specs once.

An :class:`~repro.core.silkroute.XmlView` keeps one
:class:`~repro.core.sqlgen.SqlGenerator` per ``(style, reduce, keep)`` —
its planner's — so execution, ``explain``, greedy costing and degradation
all see the same :class:`~repro.core.sqlgen.StreamSpec` objects, from any
number of threads, and a request's trace holds the generation work of
that request only.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.queries import QUERY_1
from repro.core.options import ExecutionOptions
from repro.core.partition import Partition
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle
from repro.obs import NULL_TRACER, ObsOptions
from repro.relational.connection import Connection
from repro.relational.dispatch import execute_specs
from repro.relational.engine import CostModel
from repro.relational.faults import FaultPolicy, RetryPolicy


@pytest.fixture
def make_view(tiny_db, tiny_estimator):
    def make():
        silk = SilkRoute(Connection(tiny_db, CostModel()),
                         estimator=tiny_estimator, cache=True)
        return silk.define_view(QUERY_1)
    return make


class TestOneGeneratorPerView:
    def test_prepare_twice_returns_the_same_specs(self, make_view):
        view = make_view()
        opts = ExecutionOptions()
        _, first = view._prepare(view.fully_partitioned(), opts)
        _, again = view._prepare(view.fully_partitioned(), opts)
        assert len(first) == 10
        assert all(a is b for a, b in zip(first, again))
        # ... so what a spec works out on first use is worked out once.
        assert first[0].sql is again[0].sql
        assert first[0].column_names is again[0].column_names
        # Other options, other generator.
        _, plain = view._prepare(view.fully_partitioned(),
                                 ExecutionOptions(reduce=False))
        assert all(a is not b for a, b in zip(first, plain))

    def test_dispatch_renders_no_sql(self, make_view):
        """Nothing reads the SQL text off a dispatched stream, so the
        dispatch does not render it (a sweep never does); the report
        takes it from the spec."""
        view = make_view()
        specs = view.specs("fully-partitioned")
        result = execute_specs(view.silkroute.connection, specs)
        assert [stream.sql for stream in result.streams] == [None] * 10
        assert not any("sql" in vars(spec) for spec in specs)
        report = view.materialize("fully-partitioned").report
        assert [stream.sql for stream in report.streams] == [
            spec.sql for spec in specs]

    def test_explain_costing_and_degradation_see_them(self, make_view):
        view = make_view()
        opts = ExecutionOptions()
        planner = view._planner(opts)
        prepared = planner.generator._stream_cache

        [unified] = view._prepare(view.unified_partition(), opts)[1]
        assert view.explain("unified", options=opts) == [unified.sql]
        assert list(prepared.values()) == [unified]

        # Greedy costs the generator's own specs: the unified component it
        # asks about is the spec above, not a second rendering of it.
        plan = view.greedy_plan(options=opts)
        assert planner._component_plan(
            frozenset(node.index for node in view.tree.nodes), NULL_TRACER,
        ) is unified.plan
        chosen = view._prepare(plan.recommended(), opts)[1]
        assert all(spec in prepared.values() for spec in chosen)
        known = len(prepared)
        view.materialize(options=opts)
        assert len(prepared) == known       # nothing generated to serve it

    def test_a_degraded_replan_executes_the_generators_specs(self,
                                                             make_view):
        view = make_view()
        opts = ExecutionOptions()
        prepared = view._planner(opts).generator._stream_cache
        specs, _, report = view.execute_partition(
            view.unified_partition(), options=opts,
            retry=RetryPolicy(max_attempts=2),
            faults=FaultPolicy(seed=7, error_rate=0.4),
        )
        assert report.degraded_streams and len(specs) > 1
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
        # One planner, hence one generator, per style survived the races.
        assert len(shared._planners) == len(PlanStyle)


class TestTracing:
    def test_each_request_traces_its_own_generation(self, make_view):
        view = make_view()
        first, second = ObsOptions(), ObsOptions()
        for obs in (first, second):
            view.materialize("unified", options=ExecutionOptions(obs=obs))
        for obs in (first, second):
            [sqlgen] = obs.tracer.find("sqlgen")
            assert sqlgen.attrs["streams"] == 1
        # Only the request that missed reduced anything.
        assert len(first.tracer.find("reduce")) == 1
        assert second.tracer.find("reduce") == []

    def test_costing_traces_the_reduction_it_causes(self, make_view):
        view = make_view()
        first, second = ObsOptions(), ObsOptions()
        for obs in (first, second):
            view.materialize(options=ExecutionOptions(obs=obs))
        [plan] = first.tracer.find("plan")
        assert {child.name for child in plan.children} == {"reduce"}
        assert second.tracer.find("reduce") == []
