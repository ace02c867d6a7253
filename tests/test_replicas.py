"""Replica-aware resilient dispatch (repro.relational.resilience): pools,
health-checked routing, failover and hedged requests.

The load-bearing invariants:

* **byte identity** — with any replica count >= 2, any hedge trigger,
  failover traffic, and injected faults, the materialized document and
  the paper's simulated ``query_ms``/``transfer_ms`` figures are
  identical to the single-replica fault-free run, at every dispatch
  width (the acceptance property, hypothesis-tested);
* **failover completes the query** — a pool with one permanently-down
  replica serves every stream via the healthy ones, with zero
  user-visible errors;
* **hedging pays off deterministically** — against a slow replica the
  hedged elapsed makespan is strictly lower, and hedge losers never
  double-charge ``server_ms``;
* **an early stop leaves the same state at every width** — a dispatch
  that fails or times out part-way never starts the later streams,
  whatever ``workers`` says.
"""

import io
import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2
from repro.bench.sweep import sweep_partitions
from repro.common.errors import TimeoutExceeded, TransientConnectionError
from repro.core.partition import (
    Partition,
    fully_partitioned,
    unified_partition,
)
from repro.core.silkroute import SilkRoute
from repro.obs import ObsOptions
from repro.relational.connection import Connection, TransferModel
from repro.relational.engine import CostModel
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import (
    ReplicaPool,
    Resilience,
    replica_fault_policy,
)
from conftest import spans_named


def fresh_view(tiny_db, tiny_estimator, query=QUERY_1, **silk_kwargs):
    connection = Connection(tiny_db, CostModel())
    silk = SilkRoute(connection, estimator=tiny_estimator, **silk_kwargs)
    return connection, silk.define_view(query)


def stream_accounting(report, *extra):
    """Per stream, what the one dispatch loop charged it."""
    fields = ("label", "attempts", "retries", "faults", "backoff_ms",
              "fault_latency_ms", "from_cache") + extra
    return [tuple(getattr(s.resilience, f) for f in fields)
            for s in report.streams]


def trace_shape(obs, replica_spans=True):
    """The traced run's span and event names, in order."""

    def names(span):
        out = [span.name] + ["event:" + e.name for e in span.events]
        for child in span.children:
            if replica_spans or not child.name.startswith("replica:"):
                out.extend(names(child))
        return out

    return [names(root) for root in obs.tracer.roots]


@pytest.fixture(scope="module")
def baseline(request):
    """The single-replica fault-free run every identity test compares to."""
    tiny_db = request.getfixturevalue("tiny_db")
    tiny_estimator = request.getfixturevalue("tiny_estimator")
    _, view = fresh_view(tiny_db, tiny_estimator)
    return view.materialize("fully-partitioned")


# ---------------------------------------------------------------------------
# Construction and normalization


class TestReplicaSet:
    """A pool's replica set: N connections over one database."""

    def test_same_database_required(self, tiny_db, tiny_estimator):
        from repro.tpch.generator import TpchGenerator, TpchScale

        other_db = TpchGenerator(
            scale=TpchScale(suppliers=2, parts=2, customers=2, orders=2),
            seed=1,
        ).generate()
        with pytest.raises(ValueError, match="different Database"):
            ReplicaPool([
                Connection(tiny_db, CostModel()),
                Connection(other_db, CostModel()),
            ])

    def test_needs_at_least_one_connection(self):
        with pytest.raises(ValueError):
            ReplicaPool([])

    def test_from_connection_replica_zero_is_the_connection(self, tiny_db):
        connection = Connection(tiny_db, CostModel(), engine="tuple")
        pool = ReplicaPool.from_connection(connection, 3)
        assert len(pool.connections) == 3
        assert pool.connections[0] is connection
        assert all(c.database is tiny_db for c in pool.connections)
        assert all(c.engine.mode == "tuple" for c in pool.connections)

    def test_from_connection_rejects_bad_counts(self, tiny_db):
        connection = Connection(tiny_db, CostModel())
        with pytest.raises(ValueError):
            ReplicaPool.from_connection(connection, 0)
        with pytest.raises(ValueError, match="faults has"):
            Resilience(
                replicas=3, faults=[FaultPolicy(), FaultPolicy()],
            ).executor(connection)

    def test_seed_derivation_is_per_replica(self):
        base = FaultPolicy(seed=7, error_rate=0.5)
        assert replica_fault_policy(base, 0) is base
        one = replica_fault_policy(base, 1)
        two = replica_fault_policy(base, 2)
        assert one.seed == "7|r1" and two.seed == "7|r2"
        assert one.error_rate == base.error_rate
        assert replica_fault_policy(None, 2) is None
        # Derived replicas draw independently but reproducibly.
        draws_one = [one.decide("S1", "fp", a).fail for a in range(1, 20)]
        draws_two = [two.decide("S1", "fp", a).fail for a in range(1, 20)]
        assert draws_one != draws_two
        assert draws_one == [
            replica_fault_policy(base, 1).decide("S1", "fp", a).fail
            for a in range(1, 20)
        ]

    def test_explicit_fault_plan_is_per_replica(self, tiny_db):
        connection = Connection(tiny_db, CostModel())
        down = FaultPolicy(seed=1, error_rate=1.0)
        ok = FaultPolicy(seed=2, error_rate=0.0)
        executor = Resilience(replicas=2, faults=[down, ok]).executor(
            connection)
        assert executor.policies == [down, ok]
        assert executor.pool.connections[0] is connection

    def test_a_pool_leaves_its_connection_fault_free(
            self, tiny_db, tiny_estimator, baseline):
        """Faults belong to the execution, never to a connection: after a
        pool over this connection ran with replica 0 — this connection —
        hard down, a plain materialize on the connection draws nothing."""
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool.from_connection(connection, 2)
        down = FaultPolicy(seed=1, error_rate=1.0)
        pooled = view.materialize("fully-partitioned", resilience=Resilience(
            replicas=pool, faults=[down, None], retry=RetryPolicy()))
        assert pooled.report.resilience.faults > 0
        plain = view.materialize("fully-partitioned")
        assert plain.xml == baseline.xml
        assert plain.report.resilience is None
        assert not hasattr(connection, "faults")

    def test_replicas_sharing_a_plan_cache_sum_their_own_transfer(
            self, tiny_db, tiny_estimator):
        """Replicas with different transfer models share one plan cache —
        rows and charge log — but not a transfer sum: whichever replica
        stored the entry, each one's ``transfer_ms``, cold and replayed,
        is what a cache-less connection with its model reports; so is the
        winner's in a hedged race, where the backup replays the entry the
        primary has just stored."""
        models = [TransferModel(), TransferModel(row_ms=1.0, byte_ms=0.02)]

        def shared_cache_pool():
            connection = Connection(tiny_db, CostModel(), models[0])
            view = SilkRoute(
                connection, estimator=tiny_estimator, cache=True,
            ).define_view(QUERY_1)
            pool = ReplicaPool([connection, Connection(
                tiny_db, CostModel(), models[1], cache=connection.cache)])
            return view, pool

        view, rset = shared_cache_pool()
        specs = view.specs("fully-partitioned")
        want = [
            {spec.label: Connection(tiny_db, CostModel(), model).execute(
                spec.plan, compact_rows=spec.compact).transfer_ms
             for spec in specs}
            for model in models
        ]
        for i, spec in enumerate(specs):
            # Alternate which replica runs the plan and which replays it.
            order = rset.connections[::-1] if i % 2 else rset.connections
            for _ in ("cold", "replayed"):
                for conn in order:
                    replica = rset.connections.index(conn)
                    stream = conn.execute(spec.plan, compact_rows=spec.compact)
                    assert stream.transfer_ms == want[replica][spec.label]
            assert want[0][spec.label] != want[1][spec.label]
        cache = rset.connections[0].cache
        assert cache.stats().stores == len(cache) == len(specs)
        for _, entry in cache.items():
            assert {model for model, _ in entry.transfer_sums} == set(models)
            assert len(entry.transfer_sums) == 2

        view, pool = shared_cache_pool()
        resilience = Resilience(
            replicas=pool, hedge_ms=10.0, retry=RetryPolicy(max_attempts=2),
            faults=[FaultPolicy(seed=3, latency_ms=500.0), FaultPolicy(seed=4)],
        )
        for run in ("hedged", "replayed"):
            report = view.materialize(
                "fully-partitioned", resilience=resilience).report
            assert [s.transfer_ms for s in report.streams] == [
                want[s.resilience.replica][s.label] for s in report.streams]
            if run == "hedged":
                assert {s.resilience.replica for s in report.streams
                        if s.resilience.hedge_wins} == {1}
        assert all(s.resilience.from_cache for s in report.streams)


class TestExecutorRoutes:
    def test_replicas_contract(self, tiny_db):
        """What ``Resilience.replicas`` becomes: None and 1 are the
        connection alone, a count above 1 a fresh pool whose replica 0 is
        the connection, and a live pool is used as it is."""
        connection = Connection(tiny_db, CostModel())

        def pool(replicas):
            return Resilience(replicas=replicas).executor(connection).pool

        assert pool(None) is None and pool(1) is None
        fresh = pool(3)
        assert len(fresh.connections) == 3
        assert fresh.connections[0] is connection
        assert pool(3) is not fresh
        live = ReplicaPool.from_connection(Connection(tiny_db, CostModel()), 2)
        assert pool(live) is live


# ---------------------------------------------------------------------------
# Health, epochs, and routing


class TestPoolHealth:
    def _pool(self, tiny_db, n=3):
        connection = Connection(tiny_db, CostModel())
        return ReplicaPool.from_connection(connection, n)

    def test_epoch_pick_and_default_ranking(self, tiny_db):
        pool = self._pool(tiny_db)
        epoch = pool.begin_epoch()
        assert epoch.ranking == (0, 1, 2)
        assert epoch.pick() == 0
        assert epoch.pick(exclude={0}) == 1
        assert epoch.pick(exclude={0, 1, 2}) is None

    def test_ranking_prefers_fewer_failures_then_lower_latency(self,
                                                               tiny_db):
        pool = self._pool(tiny_db, n=2)
        # A slower replica ranks behind a faster one...
        epoch = pool.begin_epoch()
        epoch.observe("S1", 1, 0, True, 100.0)
        epoch.observe("S1", 1, 1, True, 10.0)
        pool.finish_epoch(epoch)
        assert pool.begin_epoch().ranking == (1, 0)
        # ...but a consecutive failure outranks any latency difference.
        epoch = pool.begin_epoch()
        epoch.observe("S2", 1, 1, False, 0.0)
        pool.finish_epoch(epoch)
        assert pool.begin_epoch().ranking == (0, 1)

    def test_observations_fold_in_deterministic_order(self, tiny_db):
        # The same observations in two arrival orders leave identical
        # health state — completion order never leaks into routing.
        obs = [("S1", 1, 0, True, 50.0), ("S2", 1, 0, True, 10.0),
               ("S3", 1, 1, False, 0.0), ("S3", 2, 0, True, 30.0)]
        pools = []
        for ordering in (obs, list(reversed(obs))):
            pool = self._pool(tiny_db)
            epoch = pool.begin_epoch()
            for entry in ordering:
                epoch.observe(*entry)
            pool.finish_epoch(epoch)
            pools.append(pool)
        first, second = pools
        assert [h.ewma_latency_ms for h in first.health] == \
               [h.ewma_latency_ms for h in second.health]
        assert [h.consecutive_failures for h in first.health] == \
               [h.consecutive_failures for h in second.health]

    def test_a_streamed_open_says_nothing_about_latency(
            self, tiny_db, tiny_estimator):
        """A lazily opened cursor has executed nothing: its open tells the
        pool that the replica took it, not how fast the replica is.  (It
        used to record the cursor's startup charge as the completion, and
        one streamed call made a replica look ~30x faster than its twin
        for the pool's life.)"""
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool.from_connection(connection, 2)
        pooled = Resilience(replicas=pool)
        [stream] = view.materialize(
            "unified", resilience=pooled).report.streams
        true_cost = stream.server_ms + stream.transfer_ms
        assert pool.health[0].ewma_latency_ms == true_cost
        # The replica nothing has measured yet ranks first and takes the
        # nine streamed opens...
        for _ in range(9):
            view.materialize_to(io.StringIO(), "unified", resilience=pooled)
        assert pool.health[1].successes == 9
        assert pool.health[1].ewma_latency_ms is None
        assert pool.health[0].ewma_latency_ms == true_cost
        # ...so the next eager run measures it: identical replicas tie.
        view.materialize("unified", resilience=pooled)
        assert pool.health[1].ewma_latency_ms == true_cost
        assert pool.begin_epoch().ranking == (0, 1)
        # A refused open is still a failure.
        with pytest.raises(TransientConnectionError):
            view.materialize_to(io.StringIO(), "unified", resilience=Resilience(
                replicas=pool, faults=FaultPolicy(seed=1, error_rate=1.0)))
        assert pool.health[0].consecutive_failures == 1

    def test_second_call_is_routed_by_what_the_first_learned(
            self, tiny_db, tiny_estimator, baseline):
        """Health routing across calls: on a reused pool whose primary is
        slow, the first call pays for the discovery (hedges that win), the
        second is served by the fast replica outright — no hedge issued."""
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool.from_connection(connection, 2)
        slowest = max(
            s.server_ms + s.transfer_ms for s in baseline.report.streams
        )
        assert slowest < 200.0 < 0.5 * 500.0    # only replica 0 is past it

        def call():
            return view.materialize("fully-partitioned", resilience=Resilience(
                replicas=pool, hedge_ms=200.0,
                faults=[FaultPolicy(seed=3, latency_ms=500.0), None],
            ))

        first, second = call(), call()
        assert first.xml == second.xml == baseline.xml
        assert first.report.resilience.hedge_wins == first.report.n_streams
        assert second.report.resilience.hedges == 0
        assert {s.resilience.replica for s in second.report.streams} == {1}
        assert (second.report.elapsed_total_ms
                < first.report.elapsed_total_ms)


# ---------------------------------------------------------------------------
# Byte identity — the acceptance property


class TestByteIdentity:
    def test_replicated_faulted_run_matches_baseline(
            self, tiny_db, tiny_estimator, baseline):
        _, view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize("fully-partitioned", resilience=Resilience(
            replicas=3, hedge_ms=5.0, retry=RetryPolicy(max_attempts=5),
            faults=FaultPolicy(seed=7, error_rate=0.3),
        ))
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        assert result.report.transfer_ms == baseline.report.transfer_ms
        assert result.report.resilience.faults > 0

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        replicas=st.integers(min_value=2, max_value=4),
        hedge_ms=st.sampled_from([None, 1.0, 5.0, 50.0]),
        error_rate=st.sampled_from([0.0, 0.2, 0.5]),
        seed=st.integers(min_value=0, max_value=40),
        workers=st.sampled_from([None, 4]),
    )
    def test_acceptance_property(self, tiny_db, tiny_estimator, baseline,
                                 replicas, hedge_ms, error_rate, seed,
                                 workers):
        """Any (replicas >= 2, hedge_ms, faults, workers) combination that
        completes is indistinguishable from the single-replica fault-free
        run.  At error_rate=0.5 a stream can legitimately exhaust its 6
        attempts (~1/64 per stream) — that terminal outcome is the retry
        machinery's own contract, not the identity property, so such draws
        are rejected rather than failed."""
        _, view = fresh_view(tiny_db, tiny_estimator)
        try:
            result = view.materialize(
                "fully-partitioned", workers=workers,
                resilience=Resilience(
                    replicas=replicas, hedge_ms=hedge_ms,
                    faults=FaultPolicy(seed=seed, error_rate=error_rate),
                    retry=RetryPolicy(max_attempts=6),
                ),
            )
        except TransientConnectionError:
            assume(False)
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        assert result.report.transfer_ms == baseline.report.transfer_ms

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=30),
           hedge_ms=st.sampled_from([None, 2.0, 20.0]),
           query=st.sampled_from([QUERY_1, QUERY_2]))
    def test_every_width_agrees_exactly(
            self, tiny_db, tiny_estimator, seed, hedge_ms, query):
        """Same seed, same pool shape: width 1 and width 4 report the
        same attempts, faults, failovers, hedges, and elapsed charges,
        stream by stream, and trace the same spans and events in the
        same order."""
        # The process generates a plan's SQL once, under the first run's
        # sqlgen span: generate it before either traced run.
        fresh_view(tiny_db, tiny_estimator, query)[1].specs("fully-partitioned")
        reports, shapes = [], []
        for workers in (None, 4):
            _, view = fresh_view(tiny_db, tiny_estimator, query)
            obs = ObsOptions()
            result = view.materialize(
                "fully-partitioned", workers=workers, obs=obs,
                resilience=Resilience(
                    replicas=3, hedge_ms=hedge_ms,
                    faults=FaultPolicy(seed=seed, error_rate=0.35),
                    retry=RetryPolicy(max_attempts=6),
                ),
            )
            reports.append(result.report)
            shapes.append(trace_shape(obs))
        narrow, wide = reports
        assert wide.resilience == narrow.resilience
        extra = ("replica", "failovers", "hedges", "hedge_wins",
                 "hedge_wait_ms")
        assert (stream_accounting(wide, *extra)
                == stream_accounting(narrow, *extra))
        assert shapes[1] == shapes[0]

    def test_single_replica_pool_matches_plain_connection(
            self, tiny_db, tiny_estimator, baseline):
        """A 1-replica pool is the single connection, bit for bit: the
        same loop ran both, the pool only named the one candidate."""
        faults = FaultPolicy(seed=9, error_rate=0.4)
        retry = RetryPolicy(max_attempts=5)
        for query, workers in itertools.product(
                (QUERY_1, QUERY_2), (None, 4)):
            _, plain_view = fresh_view(tiny_db, tiny_estimator, query)
            plain_obs = ObsOptions()
            plain = plain_view.materialize(
                "fully-partitioned",
                resilience=Resilience(faults=faults, retry=retry),
                workers=workers, obs=plain_obs,
            )
            connection, pooled_view = fresh_view(
                tiny_db, tiny_estimator, query
            )
            pool = ReplicaPool([connection])
            pooled_obs = ObsOptions()
            pooled = pooled_view.materialize(
                "fully-partitioned",
                resilience=Resilience(replicas=pool, faults=faults,
                                      retry=retry),
                workers=workers, obs=pooled_obs,
            )
            assert pooled.xml == plain.xml
            if query is QUERY_1:
                assert plain.xml == baseline.xml
            assert plain.report.resilience.faults > 0
            totals = ("attempts", "faults", "backoff_ms", "fault_latency_ms")
            assert ([getattr(pooled.report.resilience, f) for f in totals]
                    == [getattr(plain.report.resilience, f) for f in totals])
            assert pooled.report.resilience.failovers == 0
            assert pooled.report.resilience.hedges == 0
            assert (stream_accounting(pooled.report)
                    == stream_accounting(plain.report))
            assert (pooled.report.elapsed_query_ms
                    == plain.report.elapsed_query_ms)
            assert (pooled.report.elapsed_total_ms
                    == plain.report.elapsed_total_ms)
            assert all(s.resilience.replica is None
                       for s in plain.report.streams)
            assert not spans_named(plain_obs.tracer, "replica")
            assert (trace_shape(pooled_obs, replica_spans=False)
                    == trace_shape(plain_obs))


# ---------------------------------------------------------------------------
# Streamed reports


class TestStreamedReports:
    @pytest.mark.parametrize("replicas", [None, 3])
    def test_streamed_report_matches_the_eager_one(
            self, tiny_db, tiny_estimator, replicas):
        """Under a latency-only policy nothing is retried, so the streamed
        and the eager run submit the same streams to the same replicas
        and draw the same latencies: their reports agree per stream and
        on the elapsed makespan."""
        resilience = Resilience(
            replicas=replicas, faults=FaultPolicy(seed=1, latency_ms=20.0))
        _, eager_view = fresh_view(tiny_db, tiny_estimator)
        eager = eager_view.materialize(
            "fully-partitioned", resilience=resilience).report
        _, streamed_view = fresh_view(tiny_db, tiny_estimator)
        streamed = streamed_view.materialize_to(
            io.StringIO(), "fully-partitioned", resilience=resilience).report

        def per_stream(report):
            return [(s.label, s.resilience.fault_latency_ms,
                     s.resilience.replica, s.resilience.attempts)
                    for s in report.streams]

        assert per_stream(streamed) == per_stream(eager)
        assert eager.resilience.fault_latency_ms > 0
        assert {s.resilience.replica for s in streamed.streams} == (
            {None} if replicas is None else {0})
        assert streamed.elapsed_total_ms == eager.elapsed_total_ms
        assert streamed.elapsed_total_ms > eager.query_ms + eager.transfer_ms


# ---------------------------------------------------------------------------
# Early stops


class TestEarlyStop:
    WIDTHS = (None, 2, 10)

    @staticmethod
    def left_behind(tiny_db, tiny_estimator, workers, faults=None,
                    budget_ms=None):
        """Run fully-partitioned Q1 (10 streams) over one reused 2-replica
        pool into an early stop (a fault or a budget); return everything
        the dispatch left behind."""
        connection, view = fresh_view(tiny_db, tiny_estimator, cache=True)
        pool = ReplicaPool.from_connection(connection, 2)
        obs = ObsOptions()
        with pytest.raises((TimeoutExceeded, TransientConnectionError)) as info:
            view.materialize(
                "fully-partitioned", workers=workers, obs=obs,
                budget_ms=budget_ms,
                resilience=Resilience(replicas=pool, faults=faults),
            )
        counters = obs.metrics.snapshot()["counters"]
        return {
            "stopped_at": (type(info.value), info.value.stream_label),
            "health": [
                (h.successes, h.failures, h.consecutive_failures,
                 h.ewma_latency_ms)
                for h in pool.health
            ],
            "stream_spans": [
                span.name for span in obs.tracer.walk()
                if span.name.startswith("stream:")
            ],
            "faults": counters.get("faults.injected", 0),
            "attempts": counters.get("dispatch.attempts", 0),
            "cached_plans": len(connection.cache),
        }

    def test_terminal_failure_leaves_the_same_state_at_every_width(
            self, tiny_db, tiny_estimator):
        """Without ``retry`` the first drawn fault is terminal.  Under seed
        0 it hits the second of ten streams: one stream ran, one failed,
        eight were never started — at any width."""
        faults = FaultPolicy(seed=0, error_rate=0.25)
        narrow, *wider = [
            self.left_behind(tiny_db, tiny_estimator, workers, faults=faults)
            for workers in self.WIDTHS
        ]
        assert narrow["stopped_at"] == (TransientConnectionError, "S1.1")
        assert narrow["stream_spans"] == ["stream:S1", "stream:S1.1"]
        assert narrow["health"][0][:2] == (1, 1)
        assert narrow["cached_plans"] == 1
        for state in wider:
            assert state == narrow

    def test_timeout_leaves_the_same_state_at_every_width(
            self, tiny_db, tiny_estimator):
        _, view = fresh_view(tiny_db, tiny_estimator)
        clean = view.materialize(view.fully_partitioned(),
                                 reduce=False).report
        times = [s.server_ms for s in clean.streams]
        # The first clearly slower stream that is not the last one.
        cut = next(i for i in range(1, len(times) - 1)
                   if times[i] > 1.1 * max(times[:i]))
        budget = (max(times[:cut]) + times[cut]) / 2
        narrow, *wider = [
            self.left_behind(
                tiny_db, tiny_estimator, workers, budget_ms=budget
            )
            for workers in self.WIDTHS
        ]
        assert narrow["stopped_at"] == (
            TimeoutExceeded, clean.streams[cut].label
        )
        assert len(narrow["stream_spans"]) == cut + 1
        assert narrow["health"][0][:2] == (cut, 0)
        for state in wider:
            assert state == narrow


# ---------------------------------------------------------------------------
# Failover


class TestFailover:
    def test_hard_down_replica_is_routed_around(
            self, tiny_db, tiny_estimator, baseline):
        connection, view = fresh_view(tiny_db, tiny_estimator)
        down = FaultPolicy(seed=1, error_rate=1.0)
        ok = FaultPolicy(seed=2, error_rate=0.0)
        pool = ReplicaPool.from_connection(connection, 3)
        result = view.materialize("fully-partitioned", resilience=Resilience(
            replicas=pool, faults=[down, ok, ok],
            retry=RetryPolicy(max_attempts=4),
        ))
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        report = result.report
        assert report.resilience.failovers >= report.n_streams
        assert all(s.resilience.replica in (1, 2) for s in report.streams)
        # The pool learned: replica 0 accumulated only failures.
        assert pool.health[0].failures > 0 and pool.health[0].successes == 0

    def test_streaming_pool_learns_from_a_failed_open(
            self, tiny_db, tiny_estimator):
        """Without ``retry`` a cursor that fails to open fails the call,
        but the pool learns: the failed open counts against the replica,
        so the next call on the same pool opens everything on the healthy
        one."""
        _, plain_view = fresh_view(tiny_db, tiny_estimator)
        plain = io.StringIO()
        plain_view.materialize_to(plain, "unified")
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pooled = Resilience(
            replicas=ReplicaPool.from_connection(connection, 2),
            faults=[FaultPolicy(seed=1, error_rate=1.0), None],
        )
        pool = pooled.replicas
        with pytest.raises(TransientConnectionError):
            view.materialize_to(io.StringIO(), "unified", resilience=pooled)
        assert pool.health[0].failures == 1
        sink = io.StringIO()
        result = view.materialize_to(sink, "unified", resilience=pooled)
        assert sink.getvalue() == plain.getvalue()
        assert pool.health[0].successes == 0
        assert pool.health[1].successes == result.report.n_streams

    def test_failover_needs_a_retry_budget(self, tiny_db, tiny_estimator):
        from repro.common.errors import TransientConnectionError

        connection, view = fresh_view(tiny_db, tiny_estimator)
        # Without a retry policy the first fault is terminal, exactly as
        # on a single connection — and "fully-partitioned" degrades
        # single-node streams by propagating the error.
        with pytest.raises(TransientConnectionError):
            view.materialize("fully-partitioned", resilience=Resilience(
                replicas=ReplicaPool.from_connection(connection, 2),
                faults=[FaultPolicy(seed=1, error_rate=1.0),
                        FaultPolicy(seed=2, error_rate=0.0)],
            ))

    def test_wraparound_charges_backoff(self, tiny_db, tiny_estimator,
                                        baseline):
        connection, view = fresh_view(tiny_db, tiny_estimator)
        # S1 fails its first two attempts wherever they land, so with two
        # replicas the round wraps (both tried) and the retry policy's
        # backoff is charged before the third attempt succeeds.
        down_everywhere = [
            FaultPolicy(seed=i, fail_streams={"S1": 2}) for i in range(2)
        ]
        result = view.materialize("fully-partitioned", resilience=Resilience(
            replicas=ReplicaPool.from_connection(connection, 2),
            faults=down_everywhere,
            retry=RetryPolicy(max_attempts=6, base_ms=100.0,
                              multiplier=2.0, jitter=0.0),
        ))
        assert result.xml == baseline.xml
        [s1] = [s.resilience for s in result.report.streams
                if s.label == "S1"]
        assert s1.attempts == 3 and s1.failovers == 2
        # The wrap charged exactly the second-failure backoff (100 * 2).
        assert s1.backoff_ms == 200.0
        assert result.report.resilience.backoff_ms == 200.0


# ---------------------------------------------------------------------------
# Hedging


class TestHedging:
    def _slow_fast_pool(self, tiny_db, tiny_estimator, hedge_ms=None):
        """A view and a 2-replica policy: replica 0 slow, replica 1 fast."""
        connection, view = fresh_view(tiny_db, tiny_estimator)
        slow = FaultPolicy(seed=3, error_rate=0.0, latency_ms=500.0)
        fast = FaultPolicy(seed=4, error_rate=0.0)
        return view, Resilience(
            replicas=2, faults=[slow, fast], hedge_ms=hedge_ms,
            retry=RetryPolicy(max_attempts=2),
        )

    def test_hedge_wins_against_slow_replica(self, tiny_db, tiny_estimator,
                                             baseline):
        view, hedged = self._slow_fast_pool(tiny_db, tiny_estimator, 10.0)
        result = view.materialize("fully-partitioned", resilience=hedged)
        report = result.report
        assert result.xml == baseline.xml
        assert report.query_ms == baseline.report.query_ms
        totals = report.resilience
        assert totals.hedges > 0 and totals.hedge_wins > 0
        # A winning hedge charges the trigger wait, not the slow attempt.
        assert totals.hedge_wait_ms == 10.0 * totals.hedge_wins
        assert all(
            s.resilience.replica == 1
            for s in report.streams if s.resilience.hedge_wins
        )

    def test_hedging_cuts_the_elapsed_makespan(self, tiny_db,
                                               tiny_estimator):
        view, policy = self._slow_fast_pool(tiny_db, tiny_estimator, 10.0)
        hedged = view.materialize("fully-partitioned", resilience=policy)
        view, policy = self._slow_fast_pool(tiny_db, tiny_estimator)
        unhedged = view.materialize("fully-partitioned", resilience=policy)
        assert hedged.xml == unhedged.xml
        assert (hedged.report.elapsed_total_ms
                < unhedged.report.elapsed_total_ms)

    def test_losing_hedge_charges_nothing(self, tiny_db, tiny_estimator,
                                          baseline):
        # With a huge trigger relative to the injected latency spread, the
        # backup can never beat hedge_ms + its own cost: hedges fire but
        # never win, and the report charges no hedge wait.
        _, view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize("fully-partitioned", resilience=Resilience(
            replicas=2, hedge_ms=0.5, retry=RetryPolicy(max_attempts=2),
            faults=[FaultPolicy(seed=5, latency_ms=10.0),
                    FaultPolicy(seed=6, latency_ms=10.0)],
        ))
        report = result.report
        assert result.xml == baseline.xml
        assert report.resilience.hedges > 0
        losers = [s.resilience for s in report.streams
                  if s.resilience.hedges and not s.resilience.hedge_wins]
        assert losers
        assert all(s.hedge_wait_ms == 0.0 for s in losers)
        # server_ms is never double-counted, win or lose.
        assert report.query_ms == baseline.report.query_ms


# ---------------------------------------------------------------------------
# Sweep integration


class TestSweepReplicas:
    def test_sweep_with_replicas_times_identically(self, q1_tree, tiny_db):
        partitions = [unified_partition(q1_tree),
                      fully_partitioned(q1_tree)]
        clean = sweep_partitions(
            q1_tree, tiny_db.schema, Connection(tiny_db, CostModel()),
            partitions=partitions, cache=False,
        )
        replicated = sweep_partitions(
            q1_tree, tiny_db.schema, Connection(tiny_db, CostModel()),
            partitions=partitions, cache=False,
            resilience=Resilience(
                replicas=3, hedge_ms=5.0, retry=RetryPolicy(max_attempts=5),
                faults=FaultPolicy(seed=5, error_rate=0.3),
            ),
        )
        assert [t.query_ms for t in replicated.timings] == \
               [t.query_ms for t in clean.timings]
        assert [t.transfer_ms for t in replicated.timings] == \
               [t.transfer_ms for t in clean.timings]

    def test_sweep_width_is_each_plans_dispatch_width(
            self, q1_tree, tiny_db, tiny_estimator):
        """``workers`` means in a sweep what it means everywhere — each
        plan's simulated dispatch width — and a sweep records per-stream
        sums, which no width moves: a width-4 sweep times every plan as
        the width-1 sweep and as ``materialize(workers=4)`` does."""
        partitions = [unified_partition(q1_tree),
                      Partition([(1, 4), (1, 4, 2)]),
                      fully_partitioned(q1_tree)]

        def swept_at(workers):
            result = sweep_partitions(
                q1_tree, tiny_db.schema, Connection(tiny_db, CostModel()),
                partitions=partitions, cache=False, workers=workers,
            )
            return [(t.query_ms, t.transfer_ms) for t in result.timings]

        _, view = fresh_view(tiny_db, tiny_estimator)
        direct = []
        for partition in partitions:
            report = view.materialize(partition, workers=4,
                                      reduce=False).report
            assert report.elapsed_query_ms <= report.query_ms
            direct.append((report.query_ms, report.transfer_ms))
        assert swept_at(4) == swept_at(None) == direct


# ---------------------------------------------------------------------------
# Exports


class TestExports:
    def test_top_level_reexports(self):
        import repro

        for name in ("OverloadError", "Resilience", "ReplicaPool",
                     "AdmissionPolicy", "AdmissionController"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
        assert issubclass(repro.OverloadError, repro.ExecutionError)
        assert issubclass(repro.OverloadError, repro.ReproError)
