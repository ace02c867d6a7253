"""Replica-aware resilient dispatch (repro.relational.replicas): pools,
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
from repro.relational.replicas import (
    ReplicaPool,
    ReplicaSet,
    replica_fault_policy,
    resolve_pool,
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
    return [tuple(getattr(s, f) for f in fields) for s in report.streams]


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
    def test_same_database_required(self, tiny_db, tiny_estimator):
        from repro.tpch.generator import TpchGenerator, TpchScale

        other_db = TpchGenerator(
            scale=TpchScale(suppliers=2, parts=2, customers=2, orders=2),
            seed=1,
        ).generate()
        with pytest.raises(ValueError, match="different Database"):
            ReplicaSet([
                Connection(tiny_db, CostModel()),
                Connection(other_db, CostModel()),
            ])

    def test_needs_at_least_one_connection(self):
        with pytest.raises(ValueError):
            ReplicaSet([])

    def test_from_connection_replica_zero_is_the_connection(self, tiny_db):
        connection = Connection(tiny_db, CostModel(), engine="tuple")
        rset = ReplicaSet.from_connection(connection, 3)
        assert len(rset.connections) == 3
        assert rset.connections[0] is connection
        assert all(c.database is tiny_db for c in rset.connections)
        assert all(c.engine.mode == "tuple" for c in rset.connections)

    def test_from_connection_rejects_bad_counts(self, tiny_db):
        connection = Connection(tiny_db, CostModel())
        with pytest.raises(ValueError):
            ReplicaSet.from_connection(connection, 0)
        with pytest.raises(ValueError, match="faults has"):
            ReplicaSet.from_connection(
                connection, 3, faults=[FaultPolicy(), FaultPolicy()]
            )

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

    def test_explicit_fault_plan_installs_per_replica(self, tiny_db):
        connection = Connection(tiny_db, CostModel())
        down = FaultPolicy(seed=1, error_rate=1.0)
        ok = FaultPolicy(seed=2, error_rate=0.0)
        rset = ReplicaSet.from_connection(connection, 2, faults=[down, ok])
        assert rset.connections[0].faults is down
        assert rset.connections[1].faults is ok

    def test_replicas_sharing_a_plan_cache_sum_their_own_transfer(
            self, tiny_db, tiny_estimator):
        """Replicas with different transfer models share one plan cache —
        rows and charge log — but not a transfer sum: whichever replica
        stored the entry, each one's ``transfer_ms``, cold and replayed,
        is what a cache-less connection with its model reports; so is the
        winner's in a hedged race, where the backup replays the entry the
        primary has just stored."""
        models = [TransferModel(), TransferModel(row_ms=1.0, byte_ms=0.02)]

        def shared_cache_set(faults=None):
            connection = Connection(tiny_db, CostModel(), models[0])
            view = SilkRoute(
                connection, estimator=tiny_estimator, cache=True,
            ).define_view(QUERY_1)
            rset = ReplicaSet.from_connection(
                connection, 2, faults=faults, transfer_models=models)
            assert rset.connections[1].cache is connection.cache
            return view, rset

        view, rset = shared_cache_set()
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

        view, rset = shared_cache_set(faults=[
            FaultPolicy(seed=3, latency_ms=500.0), FaultPolicy(seed=4)])
        pool = ReplicaPool(rset)
        for run in ("hedged", "replayed"):
            report = view.materialize(
                "fully-partitioned", replicas=pool, hedge_ms=10.0,
                retry=RetryPolicy(max_attempts=2),
            ).report
            assert [s.transfer_ms for s in report.streams] == [
                want[s.replica][s.label] for s in report.streams]
            if run == "hedged":
                assert {s.replica for s in report.streams
                        if s.hedge_wins} == {1}
        assert all(s.from_cache for s in report.streams)


class TestResolvers:
    def test_resolve_pool_contract(self, tiny_db):
        connection = Connection(tiny_db, CostModel())
        assert resolve_pool(None, connection) is None
        assert resolve_pool(1, connection) is None
        pool = resolve_pool(3, connection)
        assert isinstance(pool, ReplicaPool) and len(pool.connections) == 3
        rset = ReplicaSet.from_connection(Connection(tiny_db, CostModel()), 2)
        wrapped = resolve_pool(rset, connection)
        assert isinstance(wrapped, ReplicaPool) and len(wrapped.connections) == 2
        assert resolve_pool(wrapped, connection) is wrapped


# ---------------------------------------------------------------------------
# Health, epochs, and routing


class TestPoolHealth:
    def _pool(self, tiny_db, n=3):
        connection = Connection(tiny_db, CostModel())
        return ReplicaPool(ReplicaSet.from_connection(connection, n))

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
        pool = ReplicaPool(ReplicaSet.from_connection(connection, 2))
        [stream] = view.materialize("unified", replicas=pool).report.streams
        true_cost = stream.server_ms + stream.transfer_ms
        assert pool.health[0].ewma_latency_ms == true_cost
        # The replica nothing has measured yet ranks first and takes the
        # nine streamed opens...
        for _ in range(9):
            view.materialize_to(io.StringIO(), "unified", replicas=pool)
        assert pool.health[1].successes == 9
        assert pool.health[1].ewma_latency_ms is None
        assert pool.health[0].ewma_latency_ms == true_cost
        # ...so the next eager run measures it: identical replicas tie.
        view.materialize("unified", replicas=pool)
        assert pool.health[1].ewma_latency_ms == true_cost
        assert pool.begin_epoch().ranking == (0, 1)
        # A refused open is still a failure.
        connection.faults = FaultPolicy(seed=1, error_rate=1.0)
        with pytest.raises(TransientConnectionError):
            view.materialize_to(io.StringIO(), "unified", replicas=pool)
        assert pool.health[0].consecutive_failures == 1

    def test_second_call_is_routed_by_what_the_first_learned(
            self, tiny_db, tiny_estimator, baseline):
        """Health routing across calls: on a reused pool whose primary is
        slow, the first call pays for the discovery (hedges that win), the
        second is served by the fast replica outright — no hedge issued."""
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool(ReplicaSet.from_connection(
            connection, 2,
            faults=[FaultPolicy(seed=3, latency_ms=500.0), None],
        ))
        slowest = max(
            s.server_ms + s.transfer_ms for s in baseline.report.streams
        )
        assert slowest < 200.0 < 0.5 * 500.0    # only replica 0 is past it

        def call():
            return view.materialize(
                "fully-partitioned", replicas=pool, hedge_ms=200.0,
            )

        first, second = call(), call()
        assert first.xml == second.xml == baseline.xml
        assert first.report.hedge_wins == first.report.n_streams
        assert second.report.hedges == 0
        assert {s.replica for s in second.report.streams} == {1}
        assert (second.report.elapsed_total_ms
                < first.report.elapsed_total_ms)


# ---------------------------------------------------------------------------
# Byte identity — the acceptance property


class TestByteIdentity:
    def test_replicated_faulted_run_matches_baseline(
            self, tiny_db, tiny_estimator, baseline):
        _, view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize(
            "fully-partitioned", replicas=3, hedge_ms=5.0,
            faults=FaultPolicy(seed=7, error_rate=0.3),
            retry=RetryPolicy(max_attempts=5),
        )
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        assert result.report.transfer_ms == baseline.report.transfer_ms
        assert result.report.faults_injected > 0

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
                "fully-partitioned", replicas=replicas, hedge_ms=hedge_ms,
                workers=workers,
                faults=FaultPolicy(seed=seed, error_rate=error_rate),
                retry=RetryPolicy(max_attempts=6),
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
        reports, shapes = [], []
        for workers in (None, 4):
            _, view = fresh_view(tiny_db, tiny_estimator, query)
            obs = ObsOptions()
            result = view.materialize(
                "fully-partitioned", replicas=3, hedge_ms=hedge_ms,
                workers=workers, obs=obs,
                faults=FaultPolicy(seed=seed, error_rate=0.35),
                retry=RetryPolicy(max_attempts=6),
            )
            reports.append(result.report)
            shapes.append(trace_shape(obs))
        narrow, wide = reports
        assert wide.attempts == narrow.attempts
        assert wide.faults_injected == narrow.faults_injected
        assert wide.failovers == narrow.failovers
        assert wide.hedges == narrow.hedges
        assert wide.hedge_wins == narrow.hedge_wins
        assert wide.backoff_ms == narrow.backoff_ms
        assert wide.hedge_wait_ms == narrow.hedge_wait_ms
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
                "fully-partitioned", faults=faults, retry=retry,
                workers=workers, obs=plain_obs,
            )
            connection, pooled_view = fresh_view(
                tiny_db, tiny_estimator, query
            )
            pool = ReplicaPool(ReplicaSet([connection]))
            pooled_obs = ObsOptions()
            pooled = pooled_view.materialize(
                "fully-partitioned", replicas=pool, faults=faults,
                retry=retry, workers=workers, obs=pooled_obs,
            )
            assert pooled.xml == plain.xml
            if query is QUERY_1:
                assert plain.xml == baseline.xml
            assert plain.report.faults_injected > 0
            assert pooled.report.attempts == plain.report.attempts
            assert (pooled.report.faults_injected
                    == plain.report.faults_injected)
            assert pooled.report.backoff_ms == plain.report.backoff_ms
            assert (pooled.report.fault_latency_ms
                    == plain.report.fault_latency_ms)
            assert pooled.report.failovers == 0
            assert pooled.report.hedges == 0
            assert (stream_accounting(pooled.report)
                    == stream_accounting(plain.report))
            assert (pooled.report.elapsed_query_ms
                    == plain.report.elapsed_query_ms)
            assert (pooled.report.elapsed_total_ms
                    == plain.report.elapsed_total_ms)
            assert all(s.replica is None for s in plain.report.streams)
            assert not spans_named(plain_obs.tracer, "replica")
            assert (trace_shape(pooled_obs, replica_spans=False)
                    == trace_shape(plain_obs))


# ---------------------------------------------------------------------------
# Early stops


class TestEarlyStop:
    WIDTHS = (None, 2, 10)

    @staticmethod
    def left_behind(tiny_db, tiny_estimator, workers, **scenario):
        """Run fully-partitioned Q1 (10 streams) over one reused 2-replica
        pool into ``scenario``'s early stop; return everything the
        dispatch left behind."""
        connection, view = fresh_view(tiny_db, tiny_estimator, cache=True)
        pool = ReplicaPool(ReplicaSet.from_connection(connection, 2))
        obs = ObsOptions()
        with pytest.raises((TimeoutExceeded, TransientConnectionError)) as info:
            view.materialize(
                "fully-partitioned", replicas=pool, workers=workers, obs=obs,
                **scenario,
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
        pool = ReplicaPool(
            ReplicaSet.from_connection(connection, 3, faults=[down, ok, ok])
        )
        result = view.materialize(
            "fully-partitioned", replicas=pool,
            retry=RetryPolicy(max_attempts=4),
        )
        assert result.xml == baseline.xml
        assert result.report.query_ms == baseline.report.query_ms
        report = result.report
        assert report.failovers >= report.n_streams
        assert all(s.replica in (1, 2) for s in report.streams)
        # The pool learned: replica 0 accumulated only failures.
        assert pool.health[0].failures > 0 and pool.health[0].successes == 0

    def test_streaming_pool_learns_from_a_failed_open(
            self, tiny_db, tiny_estimator):
        """``materialize_to`` has no retry layer, but its pool does learn:
        a cursor that failed to open counts against the replica, so the
        next call on the same pool opens everything on the healthy one."""
        _, plain_view = fresh_view(tiny_db, tiny_estimator)
        plain = io.StringIO()
        plain_view.materialize_to(plain, "unified")
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool(ReplicaSet.from_connection(
            connection, 2,
            faults=[FaultPolicy(seed=1, error_rate=1.0), None],
        ))
        with pytest.raises(TransientConnectionError):
            view.materialize_to(io.StringIO(), "unified", replicas=pool)
        assert pool.health[0].failures == 1
        sink = io.StringIO()
        result = view.materialize_to(sink, "unified", replicas=pool)
        assert sink.getvalue() == plain.getvalue()
        assert pool.health[0].successes == 0
        assert pool.health[1].successes == result.report.n_streams

    def test_failover_needs_a_retry_budget(self, tiny_db, tiny_estimator):
        from repro.common.errors import TransientConnectionError

        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool(ReplicaSet.from_connection(
            connection, 2,
            faults=[FaultPolicy(seed=1, error_rate=1.0),
                    FaultPolicy(seed=2, error_rate=0.0)],
        ))
        # Without a retry policy the first fault is terminal, exactly as
        # on a single connection — and "fully-partitioned" degrades
        # single-node streams by propagating the error.
        with pytest.raises(TransientConnectionError):
            view.materialize("fully-partitioned", replicas=pool)

    def test_wraparound_charges_backoff(self, tiny_db, tiny_estimator,
                                        baseline):
        connection, view = fresh_view(tiny_db, tiny_estimator)
        # S1 fails its first two attempts wherever they land, so with two
        # replicas the round wraps (both tried) and the retry policy's
        # backoff is charged before the third attempt succeeds.
        down_everywhere = [
            FaultPolicy(seed=i, fail_streams={"S1": 2}) for i in range(2)
        ]
        pool = ReplicaPool(ReplicaSet.from_connection(
            connection, 2, faults=down_everywhere,
        ))
        result = view.materialize(
            "fully-partitioned", replicas=pool,
            retry=RetryPolicy(max_attempts=6, base_ms=100.0,
                              multiplier=2.0, jitter=0.0),
        )
        assert result.xml == baseline.xml
        [s1] = [s for s in result.report.streams if s.label == "S1"]
        assert s1.attempts == 3 and s1.failovers == 2
        # The wrap charged exactly the second-failure backoff (100 * 2).
        assert s1.backoff_ms == 200.0
        assert result.report.backoff_ms == 200.0


# ---------------------------------------------------------------------------
# Hedging


class TestHedging:
    def _slow_fast_pool(self, tiny_db, tiny_estimator, latency_ms=500.0):
        connection, view = fresh_view(tiny_db, tiny_estimator)
        slow = FaultPolicy(seed=3, error_rate=0.0, latency_ms=latency_ms)
        fast = FaultPolicy(seed=4, error_rate=0.0)
        pool = ReplicaPool(
            ReplicaSet.from_connection(connection, 2, faults=[slow, fast])
        )
        return view, pool

    def test_hedge_wins_against_slow_replica(self, tiny_db, tiny_estimator,
                                             baseline):
        view, pool = self._slow_fast_pool(tiny_db, tiny_estimator)
        result = view.materialize(
            "fully-partitioned", replicas=pool, hedge_ms=10.0,
            retry=RetryPolicy(max_attempts=2),
        )
        report = result.report
        assert result.xml == baseline.xml
        assert report.query_ms == baseline.report.query_ms
        assert report.hedges > 0 and report.hedge_wins > 0
        # A winning hedge charges the trigger wait, not the slow attempt.
        assert report.hedge_wait_ms == 10.0 * report.hedge_wins
        assert all(
            s.replica == 1 for s in report.streams if s.hedge_wins
        )

    def test_hedging_cuts_the_elapsed_makespan(self, tiny_db,
                                               tiny_estimator):
        view, pool = self._slow_fast_pool(tiny_db, tiny_estimator)
        hedged = view.materialize(
            "fully-partitioned", replicas=pool, hedge_ms=10.0,
            retry=RetryPolicy(max_attempts=2),
        )
        view, pool = self._slow_fast_pool(tiny_db, tiny_estimator)
        unhedged = view.materialize(
            "fully-partitioned", replicas=pool,
            retry=RetryPolicy(max_attempts=2),
        )
        assert hedged.xml == unhedged.xml
        assert (hedged.report.elapsed_total_ms
                < unhedged.report.elapsed_total_ms)

    def test_losing_hedge_charges_nothing(self, tiny_db, tiny_estimator,
                                          baseline):
        # With a huge trigger relative to the injected latency spread, the
        # backup can never beat hedge_ms + its own cost: hedges fire but
        # never win, and the report charges no hedge wait.
        connection, view = fresh_view(tiny_db, tiny_estimator)
        pool = ReplicaPool(ReplicaSet.from_connection(
            connection, 2,
            faults=[FaultPolicy(seed=5, latency_ms=10.0),
                    FaultPolicy(seed=6, latency_ms=10.0)],
        ))
        result = view.materialize(
            "fully-partitioned", replicas=pool, hedge_ms=0.5,
            retry=RetryPolicy(max_attempts=2),
        )
        report = result.report
        assert result.xml == baseline.xml
        assert report.hedges > 0
        losers = [s for s in report.streams if s.hedges and not s.hedge_wins]
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
            replicas=3, hedge_ms=5.0,
            faults=FaultPolicy(seed=5, error_rate=0.3),
            retry=RetryPolicy(max_attempts=5),
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

        for name in ("OverloadError", "ReplicaSet", "ReplicaPool",
                     "AdmissionPolicy", "AdmissionController"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
        assert issubclass(repro.OverloadError, repro.ExecutionError)
        assert issubclass(repro.OverloadError, repro.ReproError)
