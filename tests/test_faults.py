"""Fault injection, retry/backoff, and adaptive plan
degradation (repro.relational.faults + the resilient dispatch and facade).

The load-bearing invariants:

* fault draws are deterministic and order-independent — a seed replays
  bit-identically, at any dispatch width;
* the document produced under faults + retries is byte-identical to the
  fault-free run, and the paper's ``query_ms``/``transfer_ms`` figures are
  untouched (resilience overhead is charged to the elapsed makespan only);
* fault outcomes are never stored in the plan-result cache, and a cache
  hit never counts as an attempt;
* a stream that exhausts its retries degrades into finer streams when a
  finer split exists, and otherwise propagates a
  ``TransientConnectionError`` carrying the stream label and the partial
  report.
"""

import dataclasses
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1
from repro.bench.sweep import sweep_partitions
from repro.common.errors import TransientConnectionError
from repro.core.options import ExecutionOptions
from repro.core.silkroute import SilkRoute
from repro.relational.cache import PlanResultCache, resolve_cache
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.faults import (
    NO_RETRY,
    FaultPolicy,
    RetryPolicy,
)
from repro.relational.resilience import ReplicaPool, Resilience
from repro.session import Session


@pytest.fixture
def silk(tiny_db, tiny_estimator):
    # A fresh connection per test: fault policies and caches installed
    # here must not leak into the shared session connection.
    connection = Connection(tiny_db, CostModel())
    return SilkRoute(connection, estimator=tiny_estimator)


@pytest.fixture
def view(silk):
    return silk.define_view(QUERY_1)


class TestFaultPolicy:
    def test_draws_are_deterministic(self):
        policy = FaultPolicy(seed=11, error_rate=0.5, latency_ms=20.0)
        first = [policy.decide("S1", "fp", attempt) for attempt in (1, 2, 3)]
        second = [policy.decide("S1", "fp", attempt) for attempt in (1, 2, 3)]
        assert first == second

    def test_draws_vary_by_label_fingerprint_attempt(self):
        policy = FaultPolicy(seed=11, error_rate=0.5)
        draws = {
            (label, fp, attempt): policy.decide(label, fp, attempt).fail
            for label in ("S1", "S2")
            for fp in ("fpA", "fpB")
            for attempt in (1, 2, 3, 4)
        }
        # Not all identical: the key actually feeds the PRNG.
        assert len(set(draws.values())) == 2

    def test_zero_rate_never_fails(self):
        policy = FaultPolicy(seed=3, error_rate=0.0)
        assert not any(
            policy.decide("S1", "fp", attempt).fail for attempt in range(1, 50)
        )

    def test_pinned_stream_fails_up_to_limit(self):
        policy = FaultPolicy(seed=0, fail_streams={"S1": 2})
        assert policy.decide("S1", "fp", 1).fail
        assert policy.decide("S1", "fp", 2).fail
        assert not policy.decide("S1", "fp", 3).fail
        assert not policy.decide("S2", "fp", 1).fail

    def test_backoff_is_exponential_and_deterministic(self):
        retry = RetryPolicy(base_ms=100.0, multiplier=2.0, jitter=0.0)
        assert retry.backoff_for("S1", 1) == 100.0
        assert retry.backoff_for("S1", 2) == 200.0
        assert retry.backoff_for("S1", 3) == 400.0
        jittered = RetryPolicy(base_ms=100.0, multiplier=2.0, jitter=0.25)
        first = jittered.backoff_for("S1", 1, seed=5)
        assert first == jittered.backoff_for("S1", 1, seed=5)
        assert 75.0 <= first <= 125.0


class TestRetryDeadline:
    """Budget exhaustion mid-backoff: a retry whose wait would cross the
    deadline is abandoned; a wait landing *exactly on* it is allowed.
    Each boundary is checked on the plain connection and through a
    1-replica pool — one loop serves both routes."""

    @pytest.fixture
    def spec(self, q1_tree, tiny_db):
        from repro.core.partition import fully_partitioned
        from repro.core.sqlgen import SqlGenerator

        generator = SqlGenerator(q1_tree, tiny_db.schema)
        return generator.streams_for_partition(fully_partitioned(q1_tree))[0]

    @staticmethod
    def runs(connection, spec, **policies):
        """One spec through the resilient executor, on the plain
        connection and through a 1-replica pool: a callable per route."""
        for replicas in (None, ReplicaPool([connection])):
            executor = Resilience(replicas=replicas, **policies).executor(
                connection)

            def run(executor=executor):
                with executor.routing():
                    return executor.run(spec, ExecutionOptions())

            yield run

    def test_deadline_exactly_on_backoff_boundary_allows_retry(
            self, spec, tiny_db):
        connection = Connection(tiny_db, CostModel())
        faults = FaultPolicy(seed=0, fail_streams={spec.label: 1})
        retry = RetryPolicy(max_attempts=5, base_ms=100.0, jitter=0.0,
                            deadline_ms=100.0)
        for run in self.runs(connection, spec, retry=retry, faults=faults):
            stream, stats = run()
            # spent (0) + backoff (100) == deadline (100): not over —
            # retried.
            assert stats.attempts == 2
            assert stats.retries == 1
            assert stats.backoff_ms == 100.0

    def test_deadline_just_below_backoff_exhausts(self, spec, tiny_db):
        connection = Connection(tiny_db, CostModel())
        faults = FaultPolicy(seed=0, fail_streams={spec.label: 1})
        retry = RetryPolicy(max_attempts=5, base_ms=100.0, jitter=0.0,
                            deadline_ms=99.0)
        for run in self.runs(connection, spec, retry=retry, faults=faults):
            with pytest.raises(TransientConnectionError) as info:
                run()
            assert info.value.attempts == 1
            # The abandoned wait is never charged: exhaustion happened
            # before the backoff was spent.
            assert info.value.stats.backoff_ms == 0.0

    def test_budget_exhausts_mid_backoff_before_max_attempts(
            self, spec, tiny_db):
        connection = Connection(tiny_db, CostModel())
        faults = FaultPolicy(seed=0, fail_streams=[spec.label])
        retry = RetryPolicy(max_attempts=10, base_ms=100.0, multiplier=2.0,
                            jitter=0.0, deadline_ms=500.0)
        for run in self.runs(connection, spec, retry=retry, faults=faults):
            with pytest.raises(TransientConnectionError) as info:
                run()
            # Backoffs 100 + 200 fit under 500; the third (400) would
            # cross it, so the stream exhausts at attempt 3 of an allowed
            # 10.
            assert info.value.attempts == 3
            assert info.value.stats.retries == 2
            assert info.value.stats.backoff_ms == 300.0


class TestByteIdentity:
    def test_faulted_run_is_byte_identical(self, view):
        baseline = view.materialize("fully-partitioned")
        result = view.materialize(
            "fully-partitioned",
            resilience=Resilience(
                retry=RetryPolicy(max_attempts=6),
                faults=FaultPolicy(seed=7, error_rate=0.4),
            ),
        )
        assert result.xml == baseline.xml
        assert result.report.resilience.faults > 0
        assert result.report.resilience.retries > 0
        assert result.report.resilience.backoff_ms > 0
        # The paper's figures are untouched by resilience overhead.
        assert result.report.query_ms == baseline.report.query_ms
        assert result.report.transfer_ms == baseline.report.transfer_ms

    def test_acceptance_seed_both_styles(self, view):
        # ISSUE acceptance: error_rate=0.2 with the default RetryPolicy
        # materializes byte-identically under both plan styles.
        for style in ("outer-join", "outer-union"):
            from repro.core.sqlgen import PlanStyle

            plan_style = (
                PlanStyle.OUTER_JOIN
                if style == "outer-join"
                else PlanStyle.OUTER_UNION
            )
            baseline = view.materialize("fully-partitioned", style=plan_style)
            injected = 0
            for seed in range(20):
                result = view.materialize(
                    "fully-partitioned",
                    style=plan_style,
                    resilience=Resilience(
                        retry=RetryPolicy(),
                        faults=FaultPolicy(seed=seed, error_rate=0.2),
                    ),
                )
                assert result.xml == baseline.xml
                injected += result.report.resilience.faults
            assert injected > 0

    def test_fault_draws_independent_of_width(self, view):
        opts = ExecutionOptions(
            resilience=Resilience(
                retry=RetryPolicy(max_attempts=6),
                faults=FaultPolicy(seed=7, error_rate=0.4),
            ),
        )
        narrow = view.materialize("fully-partitioned", options=opts)
        wide = view.materialize(
            "fully-partitioned", options=dataclasses.replace(opts, workers=4)
        )
        assert wide.xml == narrow.xml
        assert wide.report.resilience.faults > 0
        assert wide.report.resilience == narrow.report.resilience

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        error_rate=st.floats(min_value=0.05, max_value=0.45),
    )
    def test_materialize_byte_identity_property(
        self, tiny_db, tiny_estimator, seed, error_rate
    ):
        connection = Connection(tiny_db, CostModel())
        silk = SilkRoute(connection, estimator=tiny_estimator)
        view = silk.define_view(QUERY_1)
        baseline = view.materialize("fully-partitioned")
        try:
            result = view.materialize(
                "fully-partitioned",
                resilience=Resilience(
                    retry=RetryPolicy(max_attempts=8),
                    faults=FaultPolicy(seed=seed, error_rate=error_rate),
                ),
            )
        except TransientConnectionError as exc:
            # Exhaustion is legitimate at high rates; the partial report
            # must still identify the failing stream.
            assert exc.stream_label
            assert exc.report is not None
            return
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms


class TestNoRetry:
    def test_same_seed_raises_deterministically(self, view):
        faults = FaultPolicy(seed=7, error_rate=1.0)
        labels = []
        for _ in range(2):
            with pytest.raises(TransientConnectionError) as excinfo:
                view.materialize(
                    "fully-partitioned",
                    resilience=Resilience(faults=faults))
            exc = excinfo.value
            labels.append(exc.stream_label)
            assert exc.report is not None
            assert exc.report.streams == []
            assert exc.attempts == 1
        assert labels[0] == labels[1] == "S1"

    def test_partial_report_lists_completed_streams(self, view):
        # Pin a mid-plan stream so earlier siblings complete first.
        faults = FaultPolicy(seed=0, fail_streams={"S1.4": None})
        with pytest.raises(TransientConnectionError) as excinfo:
            view.materialize(
                "fully-partitioned",
                resilience=Resilience(faults=faults))
        exc = excinfo.value
        assert exc.stream_label == "S1.4"
        completed = [s.label for s in exc.report.streams]
        assert completed  # the streams before S1.4 in document order
        assert "S1.4" not in completed

    def test_no_retry_policy_constant(self, view):
        baseline = view.materialize("fully-partitioned")
        result = view.materialize(
            "fully-partitioned",
            resilience=Resilience(
                retry=NO_RETRY,
                faults=FaultPolicy(seed=0, error_rate=0.0),
            ),
        )
        assert result.xml == baseline.xml
        assert result.report.resilience.retries == 0


class TestCacheInterplay:
    def test_fault_outcomes_never_cached(self, silk, view):
        silk.cache = True
        with pytest.raises(TransientConnectionError):
            view.materialize(
                "fully-partitioned", resilience=Resilience(
                    faults=FaultPolicy(seed=0, error_rate=1.0),
                )
            )
        assert len(silk.cache) == 0

    def test_cache_hit_never_counts_as_attempt(self, silk, view):
        silk.cache = True
        baseline = view.materialize("fully-partitioned")
        # Every stream is now cached: even a certain-failure policy cannot
        # touch the run, because cached plans never contact the source.
        result = view.materialize(
            "fully-partitioned", resilience=Resilience(
                faults=FaultPolicy(seed=0, error_rate=1.0),
            )
        )
        assert result.xml == baseline.xml
        assert result.report.resilience.attempts == 0
        assert result.report.resilience.faults == 0
        assert all(s.resilience.from_cache for s in result.report.streams)

    def test_successful_retry_is_cached_cleanly(self, silk, view):
        silk.cache = True
        result = view.materialize(
            "fully-partitioned",
            resilience=Resilience(
                retry=RetryPolicy(max_attempts=6),
                faults=FaultPolicy(seed=7, error_rate=0.4),
            ),
        )
        assert result.report.resilience.faults > 0
        # The stored entries are the clean executions: replaying them is
        # attempt-free and byte-identical.
        replay = view.materialize(
            "fully-partitioned", resilience=Resilience(
                faults=FaultPolicy(seed=7, error_rate=1.0),
            )
        )
        assert replay.xml == result.xml
        assert replay.report.resilience.attempts == 0


class TestDegradation:
    def test_unified_plan_degrades_to_finer_streams(self, view):
        baseline = view.materialize("unified")
        result = view.materialize(
            "unified",
            resilience=Resilience(
                retry=RetryPolicy(max_attempts=2),
                faults=FaultPolicy(seed=7, error_rate=0.4),
            ),
        )
        assert result.xml == baseline.xml
        assert result.report.resilience.degraded_streams == ("S1'",)
        assert result.report.n_streams > 1

    def test_pooled_plan_degrades_when_every_replica_refuses_a_stream(
            self, silk, view):
        """Degradation under a pool: the unified stream is pinned to fail
        wherever it lands, so failover runs out of replicas and the plan
        is re-planned into finer streams — which the pool then serves."""
        baseline = view.materialize("unified")
        pool = ReplicaPool.from_connection(silk.connection, 3)
        result = view.materialize("unified", resilience=Resilience(
            replicas=pool, retry=RetryPolicy(max_attempts=4),
            faults=[FaultPolicy(seed=i, fail_streams=("S1'",))
                    for i in range(3)],
        ))
        report = result.report
        assert result.xml == baseline.xml
        assert report.query_ms > baseline.report.query_ms    # finer plans
        assert report.resilience.degraded_streams == ("S1'",)
        assert report.n_streams == 10
        # The coarse stream tried every replica, then wrapped; its four
        # burned attempts stay in the totals.
        assert report.resilience.failovers == 3
        assert report.resilience.attempts == 4 + report.n_streams
        assert all(h.failures for h in pool.health)

    def test_single_node_stream_propagates(self, view):
        faults = FaultPolicy(seed=0, fail_streams={"S1": None})
        with pytest.raises(TransientConnectionError) as excinfo:
            view.materialize(
                "fully-partitioned",
                resilience=Resilience(
                    retry=RetryPolicy(max_attempts=2),
                    faults=faults,
                ),
            )
        exc = excinfo.value
        assert exc.stream_label == "S1"
        assert exc.report is not None
        assert exc.report.resilience.degraded_streams == ()

    def test_degradation_accounts_spent_attempts(self, view):
        result = view.materialize(
            "unified",
            resilience=Resilience(
                retry=RetryPolicy(max_attempts=2),
                faults=FaultPolicy(seed=7, error_rate=0.4),
            ),
        )
        # The degraded-away coarse stream burned two attempts that must
        # appear in the plan totals even though it produced no stream.
        assert result.report.resilience.attempts > result.report.n_streams


class TestExecutionOptions:
    def test_explicit_kwargs_override_options(self, view):
        opts = ExecutionOptions(budget_ms=1.0)
        baseline = view.materialize("fully-partitioned")
        # budget_ms=None explicitly disables the option's tiny budget.
        result = view.materialize(
            "fully-partitioned", options=opts, budget_ms=None
        )
        assert result.xml == baseline.xml

    def test_options_flow_through_facade(self, view):
        from repro.core.sqlgen import PlanStyle

        opts = ExecutionOptions(style=PlanStyle.OUTER_UNION, workers=2)
        result = view.materialize("fully-partitioned", options=opts)
        assert result.report.n_streams == 10
        assert result.report.workers == 2

    def test_unknown_option_rejected(self, view, silk):
        session = Session(silk)
        partition = view.unified_partition()
        calls = [
            lambda **kw: view.materialize("unified", **kw),
            lambda **kw: view.materialize_to(io.StringIO(), "unified", **kw),
            lambda **kw: view.explain("unified", **kw),
            lambda **kw: view.greedy_plan(**kw),
            lambda **kw: session.sweep(QUERY_1, partitions=[partition], **kw),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="bogus"):
                call(bogus=1)

    def test_precedence_keyword_options_session_field(self, silk):
        def workers(session, **kw):
            return session.materialize(
                QUERY_1, "fully-partitioned", **kw
            ).report.workers

        assert workers(Session(silk)) == 1          # field default (None)
        session = Session(silk, options=ExecutionOptions(workers=2))
        assert workers(session) == 2                # session default
        per_call = ExecutionOptions(workers=3)
        assert workers(session, options=per_call) == 3
        assert workers(session, options=per_call, workers=4) == 4

    def test_per_method_reduce_defaults(self, view, silk):
        reduced = view.explain("unified", reduce=True)
        plain = view.explain("unified", reduce=False)
        assert reduced != plain
        assert view.explain("unified") == plain
        partition = view.unified_partition()
        sweep = Session(silk).sweep(QUERY_1, partitions=[partition]).sweep
        assert sweep.reduced is False
        for result in (
            view.materialize("unified"),
            view.materialize_to(io.StringIO(), "unified"),
        ):
            assert [s.sql for s in result.report.streams] == reduced
        # An options object is taken at face value, method default or not.
        assert view.explain("unified", options=ExecutionOptions()) == reduced

    def test_frozen_and_replace(self):
        opts = ExecutionOptions(workers=2)
        with pytest.raises(Exception):
            opts.workers = 3
        assert dataclasses.replace(opts, workers=4).workers == 4
        assert opts.workers == 2

    def test_top_level_reexports(self):
        import repro

        assert repro.ExecutionOptions is ExecutionOptions
        assert repro.FaultPolicy is FaultPolicy
        assert repro.RetryPolicy is RetryPolicy
        assert repro.Resilience is Resilience
        assert repro.TransientConnectionError is TransientConnectionError


class TestCacheWiring:
    def test_connection_true_installs_fresh(self, tiny_db):
        connection = Connection(tiny_db, CostModel(), cache=True)
        assert isinstance(connection.cache, PlanResultCache)

    def test_silkroute_shares_instance(self, tiny_db, tiny_estimator):
        shared = PlanResultCache()
        connection = Connection(tiny_db, CostModel())
        silk = SilkRoute(connection, estimator=tiny_estimator, cache=shared)
        assert silk.cache is shared
        assert connection.cache is shared

    def test_false_uninstalls(self, tiny_db, tiny_estimator):
        connection = Connection(tiny_db, CostModel(), cache=True)
        silk = SilkRoute(connection, estimator=tiny_estimator)
        silk.cache = False
        assert connection.cache is None

    def test_resolve_cache_contract(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert isinstance(resolve_cache(True), PlanResultCache)
        shared = PlanResultCache()
        assert resolve_cache(shared) is shared


class TestCursorClose:
    def test_context_manager_closes(self, tiny_conn):
        from repro.relational.algebra import Scan

        plan = Scan(tiny_conn.database.schema.table("Supplier"), "s")
        cursor = tiny_conn.execute_iter(plan)
        with cursor:
            next(iter(cursor))
        assert cursor.closed
        assert list(cursor) == []
        cursor.close()  # idempotent

    def test_materialize_to_closes_cursors_on_error(self, view):
        sink = io.StringIO()
        with pytest.raises(TransientConnectionError):
            view.materialize_to(
                sink, "fully-partitioned",
                resilience=Resilience(
                    faults=FaultPolicy(seed=0, fail_streams={"S1.4": None}),
                ),
            )


class TestSweepFaults:
    def test_sweep_records_failures_without_degrading(
        self, q1_tree, tiny_db, tiny_estimator
    ):
        from repro.core.partition import fully_partitioned

        connection = Connection(tiny_db, CostModel())
        result = sweep_partitions(
            q1_tree, tiny_db.schema, connection,
            partitions=[fully_partitioned(q1_tree)],
            cache=False,
            resilience=Resilience(
                retry=RetryPolicy(max_attempts=2),
                faults=FaultPolicy(seed=0, fail_streams={"S1": None}),
            ),
        )
        assert len(result.failed()) == 1
        timing = result.failed()[0]
        assert timing.failed and not timing.timed_out
        assert timing.total_ms is None
        assert timing.resilience.attempts >= 2

    def test_sweep_options_bundle(self, q1_tree, tiny_db):
        from repro.core.partition import unified_partition

        connection = Connection(tiny_db, CostModel())
        opts = ExecutionOptions(resilience=Resilience(
            faults=FaultPolicy(seed=7, error_rate=0.4),
            retry=RetryPolicy(max_attempts=6),
        ))
        result = sweep_partitions(
            q1_tree, tiny_db.schema, connection,
            partitions=[unified_partition(q1_tree)],
            cache=False, options=opts,
        )
        assert len(result.completed()) == 1


class TestCliFlags:
    def test_materialize_with_fault_flags(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "materialize", "--strategy", "fully-partitioned",
                "--fault-seed", "7", "--fault-rate", "0.4", "--retries", "6",
            ],
            out=out,
        )
        assert code == 0
        assert "-- resilience:" in out.getvalue()

    def test_parser_accepts_execution_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--workers", "2", "--budget-ms", "1000",
             "--retries", "3", "--fault-seed", "1"]
        )
        assert args.workers == 2
        assert args.budget_ms == 1000.0
        assert args.retries == 3
        assert args.fault_seed == 1
