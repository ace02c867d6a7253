"""Observability (repro.obs): tracing, metrics, and exporters.

The load-bearing invariants:

* **observation never perturbs the simulation** — with a full tracing
  session attached, the XML document is byte-identical and every
  simulated figure (``query_ms``, ``transfer_ms``, the elapsed
  makespans) is identical to the tracing-off run, over random
  partitions and dispatch widths;
* the Chrome-trace export is valid Trace Event JSON and covers the whole
  pipeline — plan, sqlgen, per-stream dispatch (including retries under
  injected faults), merge, tag;
* the metrics snapshot reconciles with the :class:`PlanReport` resilience
  fields — attempts, retries, injected faults, backoff, cache replays —
  with no double counting;
* tracing defaults *off*: the null tracer/metrics are shared singletons
  that allocate nothing.
"""

import io
import json
import math
import statistics
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1
from repro.bench.sweep import sweep_partitions
from repro.core.options import ExecutionOptions
from repro.core import silkroute as silkroute_module
from repro.core.partition import (
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import SqlGenerator
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    ObsOptions,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    metrics_json,
    obs_parts,
    profile_tree,
)
from repro.relational.cache import SEEN, PlanResultCache
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience
from repro.tpch.configs import CONFIG_A, build_database
from repro.xmlgen.serializer import XmlWriter
from repro.xmlgen.streams import Walk
from repro.xmlgen.tagger import tag_streams
from conftest import spans_named


def fresh_view(tiny_db, tiny_estimator, **silk_kwargs):
    connection = Connection(tiny_db, CostModel())
    silk = SilkRoute(connection, estimator=tiny_estimator, **silk_kwargs)
    return silk.define_view(QUERY_1)


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_spans_nest_and_record(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                inner.set(rows=3)
        assert [s.name for s in tracer.roots] == ["outer"]
        assert outer.children == [inner]
        assert outer.attrs["kind"] == "test"
        assert inner.attrs["rows"] == 3
        assert outer.wall_end_s >= outer.wall_start_s
        assert inner.wall_ms <= outer.wall_ms

    def test_current_tracks_thread_local_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_explicit_parent_attaches_across_threads(self):
        import threading

        tracer = Tracer()
        with tracer.span("dispatch") as dispatch:
            parent = tracer.current()

            def worker():
                with tracer.span("stream:S1", parent=parent):
                    pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert [c.name for c in dispatch.children] == ["stream:S1"]

    def test_set_after_close_and_set_sim(self):
        tracer = Tracer()
        with tracer.span("dispatch") as span:
            pass
        span.set(makespan=True)
        span.set_sim(123.5)
        assert span.attrs["makespan"] is True
        assert span.sim_ms == 123.5

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("stream:S1") as span:
            tracer.event("fault", label="S1", attempt=1)
        assert [e.name for e in span.events] == ["fault"]
        assert span.events[0].attrs["attempt"] == 1

    def test_find_matches_name_and_prefix(self):
        tracer = Tracer()
        with tracer.span("dispatch"):
            with tracer.span("stream:S1"):
                pass
            with tracer.span("stream:S2"):
                pass
        assert len(spans_named(tracer, "stream")) == 2
        assert len(spans_named(tracer, "stream:S1")) == 1
        assert len(spans_named(tracer, "dispatch")) == 1
        assert spans_named(tracer, "nonexistent") == []

    def test_exception_marks_span_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("x")
        assert span.attrs["error"] == "ValueError"
        assert span.wall_end_s is not None
        assert tracer.current() is None


class TestNullObjects:
    def test_null_tracer_is_a_shared_noop(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", attr=1)
        assert span is NULL_SPAN
        with span as s:
            s.set(rows=1)
            s.set_sim(5.0)
            s.event("x")
        assert NULL_TRACER.roots == ()

    def test_null_metrics_is_a_shared_noop(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.inc("c")
        NULL_METRICS.gauge("g", 1)

    def test_obs_parts_resolves_none_to_singletons(self):
        assert obs_parts(None) == (NULL_TRACER, NULL_METRICS)
        obs = ObsOptions()
        assert obs_parts(obs) == (obs.tracer, obs.metrics)

    def test_disabled_halves_use_singletons(self):
        obs = ObsOptions(trace=False, metrics=False)
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is NULL_METRICS


class TestMetrics:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2)
        reg.gauge("g", 1.0)
        reg.gauge("g", 2.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 2.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 4.0
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        assert hist["mean"] == 2.0

    def test_snapshot_is_detached(self):
        reg = MetricsRegistry()
        reg.inc("c")
        snap = reg.snapshot()
        reg.inc("c")
        assert snap["counters"]["c"] == 1


# ---------------------------------------------------------------------------
# ExecutionOptions integration


class TestOptionsIntegration:
    def test_obs_options_embed_in_frozen_options(self):
        obs = ObsOptions()
        opts = ExecutionOptions(obs=obs)
        assert opts.obs is obs
        hash(opts)  # sessions hash by identity
        assert ExecutionOptions(obs=obs) != ExecutionOptions(obs=ObsOptions())

    def test_report_carries_the_live_session(self, tiny_db, tiny_estimator):
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize(options=ExecutionOptions(obs=obs))
        assert result.report.obs is obs
        assert result.report.obs.profile()
        assert spans_named(obs.tracer, "materialize")

    def test_default_execution_attaches_nothing(self, tiny_db, tiny_estimator):
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize()
        assert result.report.obs is None


# ---------------------------------------------------------------------------
# The identity contract: observation never perturbs the simulation


class TestObservationIdentity:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_tracing_on_changes_nothing(self, data, tiny_db, tiny_estimator,
                                        q1_tree):
        partitions = list(enumerate_partitions(q1_tree))
        partition = data.draw(st.sampled_from(partitions), label="partition")
        workers = data.draw(st.sampled_from([None, 2, 4]), label="workers")

        baseline = fresh_view(tiny_db, tiny_estimator).materialize(
            partition, workers=workers,
        )
        obs = ObsOptions()
        traced = fresh_view(tiny_db, tiny_estimator).materialize(
            partition, workers=workers, options=ExecutionOptions(obs=obs),
        )

        assert traced.xml == baseline.xml
        assert traced.report.query_ms == baseline.report.query_ms
        assert traced.report.transfer_ms == baseline.report.transfer_ms
        assert (
            traced.report.elapsed_query_ms == baseline.report.elapsed_query_ms
        )
        assert (
            traced.report.elapsed_total_ms == baseline.report.elapsed_total_ms
        )
        # And the trace actually recorded the run.
        assert spans_named(obs.tracer, "materialize")
        assert len(spans_named(obs.tracer, "stream")) == traced.report.n_streams

    def test_identity_holds_under_faults(self, tiny_db, tiny_estimator):
        knobs = dict(
            resilience=Resilience(faults=FaultPolicy(seed=7, error_rate=0.3),
                                  retry=RetryPolicy(max_attempts=5)),
            workers=3,
        )
        baseline = fresh_view(tiny_db, tiny_estimator).materialize(
            "fully-partitioned", **knobs,
        )
        obs = ObsOptions()
        traced = fresh_view(tiny_db, tiny_estimator).materialize(
            "fully-partitioned", options=ExecutionOptions(obs=obs), **knobs,
        )
        assert traced.xml == baseline.xml
        assert traced.report.query_ms == baseline.report.query_ms
        assert traced.report.transfer_ms == baseline.report.transfer_ms
        assert (
            traced.report.elapsed_total_ms == baseline.report.elapsed_total_ms
        )
        assert traced.report.resilience == baseline.report.resilience

    def test_sweep_timings_identical_under_obs(self, tiny_db, tiny_estimator,
                                               q1_tree, schema):
        partitions = list(enumerate_partitions(q1_tree))[:16]
        # Every run passes an options object: an explicit ExecutionOptions
        # supplies its own reduce default, overriding the sweep's
        # per-method reduce=False.
        obs = ObsOptions()
        baseline, traced, uncached, traced_uncached = (
            sweep_partitions(
                q1_tree, schema, Connection(tiny_db, CostModel()),
                partitions=partitions, cache=cache, options=options,
            )
            for cache, options in (
                (True, ExecutionOptions()),
                (True, ExecutionOptions(obs=obs)),
                (False, ExecutionOptions()),
                (False, ExecutionOptions(obs=ObsOptions())),
            )
        )
        # The cached sweeps read their streams' prices from the sweep's
        # table, and nothing moves.
        assert traced.timings == baseline.timings == uncached.timings
        assert traced_uncached.timings == baseline.timings
        assert traced.cache_stats.hits == baseline.cache_stats.hits > 0
        assert len(spans_named(obs.tracer, "partition")) == len(partitions)
        sweep_span = spans_named(obs.tracer, "sweep")[0]
        assert sweep_span.attrs["plans"] == len(partitions)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["sweep.plans"] == len(partitions)
        assert snapshot["gauges"]["sweep_cache.hits"] == (
            traced.cache_stats.hits)
        assert "plan_cache.hits" not in snapshot["counters"]


# ---------------------------------------------------------------------------
# The integration (xmlgen) is inside spans


class TestIntegrationSpans:
    """A traced integration runs the generated kernels an untraced one
    runs, inside a ``decode`` span (the streams taken apart into runs)
    and a ``merge`` span bracketing ``tag`` (which pulls the decoders, or
    is the walk reading its own rows), so that decode + merge account
    for the whole integration."""

    @pytest.fixture(scope="class")
    def config_a_db(self):
        return build_database(CONFIG_A)

    def test_decode_merge_tag_cover_the_integration(self, config_a_db,
                                                    monkeypatch):
        walls = []

        def timed(integration):
            def run(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return integration(*args, **kwargs)
                finally:
                    walls.append((time.perf_counter() - start) * 1000.0)
            return run

        for name in ("tag_streams", "splice_streams"):
            monkeypatch.setattr(silkroute_module, name,
                                timed(getattr(silkroute_module, name)))
        # The share of one run moves with the host's load: a run is a few
        # ms, of which the splice's bookkeeping outside the spans (the
        # document's set-up and copy) is a tenth of a ms.  The median
        # over five fresh materializations per plan is the claim.
        shares = {}
        for _ in range(5):
            for partition in ("unified", "fully-partitioned"):
                obs = ObsOptions()
                silk = SilkRoute(
                    Connection(config_a_db, CostModel()),
                    cache=PlanResultCache(),
                )
                result = silk.define_view(QUERY_1).materialize(
                    partition, options=ExecutionOptions(obs=obs),
                )
                [root] = spans_named(obs.tracer, "materialize")
                spans = {child.name: child for child in root.children}
                decode, merge = spans["decode"], spans["merge"]
                [tag] = merge.children
                assert tag.name == "tag"
                instances = merge.attrs["instances"]
                assert decode.attrs["instances"] == instances > 1000
                counters = obs.metrics.snapshot()["counters"]
                assert counters["decode.instances"] == instances
                assert counters["tag.bytes"] == len(result.xml)
                shares.setdefault(partition, []).append(
                    (decode.wall_ms + merge.wall_ms) / walls.pop())
        assert min(map(statistics.median, shares.values())) >= 0.90, shares

    def test_lazy_decode_is_counted_in_the_merge(self, tiny_db,
                                                 tiny_estimator,
                                                 monkeypatch):
        """Nothing is decoded ahead of the merge: the decode span holds no
        stage of its own, the merge span carries the work — a unified
        plan's walk, as untraced — and the instances it decoded are
        counted once, on both spans."""
        kernels = []
        kernel = Walk.kernel

        def counted(walk, indent, rooted):
            kernels.append(walk)
            return kernel(walk, indent, rooted)

        monkeypatch.setattr(Walk, "kernel", counted)
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        traced = view.materialize("unified",
                                  options=ExecutionOptions(obs=obs))
        assert len(kernels) == 1
        [decode] = spans_named(obs.tracer, "decode")
        [merge] = spans_named(obs.tracer, "merge")
        assert decode.children == [] and \
            [child.name for child in merge.children] == ["tag"]
        instances = merge.attrs["instances"]
        assert decode.attrs["instances"] == instances > 0
        counters = obs.metrics.snapshot()["counters"]
        assert counters["decode.instances"] == instances
        assert counters["merge.instances"] == instances
        assert traced.xml == fresh_view(tiny_db, tiny_estimator) \
            .materialize("unified").xml
        assert len(kernels) == 2

    def test_document_is_not_copied_to_count_its_characters(self, q1_tree,
                                                            tiny_db,
                                                            tiny_conn):
        """``tag.bytes`` comes from the sink's position; ``getvalue()`` — a
        copy of the whole document — runs once, for the result."""

        class CountingWriter(XmlWriter):
            copies = 0

            def getvalue(self):
                self.copies += 1
                return super().getvalue()

        specs = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            unified_partition(q1_tree)
        )
        streams = [tiny_conn.execute(spec.plan) for spec in specs]
        writer = CountingWriter()
        obs = ObsOptions()
        xml, _ = tag_streams(q1_tree, specs, streams, writer=writer, obs=obs)
        assert writer.copies == 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["tag.bytes"] == len(xml)


# ---------------------------------------------------------------------------
# Chrome-trace export


class TestChromeTrace:
    @pytest.fixture
    def traced_run(self, tiny_db, tiny_estimator):
        """A materialization under faults, so the trace includes a retry."""
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize(
            "fully-partitioned",
            options=ExecutionOptions(
                obs=obs,
                resilience=Resilience(
                    faults=FaultPolicy(seed=0, fail_streams={"S1": 1}),
                    retry=RetryPolicy(max_attempts=3),
                ),
            ),
        )
        return obs, result

    def test_json_is_valid_and_covers_the_pipeline(self, traced_run):
        obs, result = traced_run
        events = json.loads(obs.chrome_trace_json())
        assert isinstance(events, list) and events
        names = {e["name"] for e in events}
        # Full pipeline coverage: sqlgen, per-stream dispatch, merge, tag.
        for required in ("materialize", "sqlgen", "dispatch", "merge", "tag"):
            assert required in names, f"missing {required} span"
        assert any(n.startswith("stream:") for n in names)
        # The injected fault produced a retry span and a fault instant.
        assert "retry" in names
        assert any(
            e["ph"] == "i" and e["name"].endswith("fault") for e in events
        )

    def test_events_are_well_formed(self, traced_run):
        obs, _ = traced_run
        events = obs.chrome_trace()
        for event in events:
            assert event["ph"] in ("X", "i", "M")
            if event["ph"] == "M":
                continue
            assert isinstance(event["ts"], (int, float))
            assert event["ts"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # Complete events for every recorded span.
        spans = list(obs.tracer.walk())
        assert len([e for e in events if e["ph"] == "X"]) == len(spans)
        # Thread-name metadata for every tid used.
        tids = {e["tid"] for e in events if e["ph"] != "M"}
        named = {e["tid"] for e in events if e["ph"] == "M"}
        assert tids <= named

    def test_sim_ms_rides_in_args(self, traced_run):
        obs, result = traced_run
        events = obs.chrome_trace()
        stream_events = [
            e for e in events
            if e["ph"] == "X" and e["name"].startswith("stream:")
        ]
        assert stream_events
        assert all("sim_ms" in e["args"] for e in stream_events)

    def test_greedy_trace_includes_plan_span(self, tiny_db, tiny_estimator):
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        view.materialize(options=ExecutionOptions(obs=obs))
        names = {e["name"] for e in chrome_trace(obs.tracer)}
        assert "plan" in names

    def test_profile_tree_renders(self, traced_run):
        obs, _ = traced_run
        text = obs.profile()
        assert "materialize" in text
        assert "stream:" in text
        assert "sim" in text  # simulated durations are shown

    def test_metrics_json_round_trips(self, traced_run):
        obs, _ = traced_run
        snap = json.loads(metrics_json(obs.metrics))
        assert set(snap) == {"counters", "gauges", "histograms"}


# ---------------------------------------------------------------------------
# Metrics reconciliation with PlanReport — no double counting


class TestMetricsReconciliation:
    def _counters(self, obs):
        return obs.metrics.snapshot()["counters"]

    def test_fault_run_reconciles(self, tiny_db, tiny_estimator):
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize(
            "fully-partitioned",
            options=ExecutionOptions(
                obs=obs,
                resilience=Resilience(
                    faults=FaultPolicy(seed=3, error_rate=0.4),
                    retry=RetryPolicy(max_attempts=6),
                ),
            ),
        )
        report = result.report
        counters = self._counters(obs)
        assert counters["dispatch.attempts"] == report.resilience.attempts
        assert counters.get("dispatch.retries", 0) == report.resilience.retries
        assert counters.get("faults.injected", 0) == report.resilience.faults
        assert math.isclose(
            counters.get("retry.backoff_ms", 0.0), report.resilience.backoff_ms
        )
        assert math.isclose(
            counters.get("faults.latency_ms", 0.0),
            report.resilience.fault_latency_ms,
        )
        assert counters["streams.executed"] == report.n_streams
        assert counters["tuples.transferred"] == sum(
            s.rows for s in result.report.streams
        )

    def test_clean_run_reconciles(self, tiny_db, tiny_estimator):
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize(
            "fully-partitioned", workers=4,
            options=ExecutionOptions(obs=obs),
        )
        counters = self._counters(obs)
        # The paper's path counts streams and rows, and no resilience.
        assert result.report.resilience is None
        assert counters["streams.executed"] == result.report.n_streams
        assert "dispatch.attempts" not in counters
        assert "faults.injected" not in counters
        hist = obs.metrics.snapshot()["histograms"]
        assert hist["stream.query_ms"]["count"] == result.report.n_streams
        assert math.isclose(
            hist["stream.query_ms"]["sum"], result.report.query_ms
        )
        assert math.isclose(
            hist["stream.transfer_ms"]["sum"], result.report.transfer_ms
        )

    def test_cache_hits_reconcile(self, tiny_db, tiny_estimator):
        cache = PlanResultCache()
        view = fresh_view(tiny_db, tiny_estimator, cache=cache)
        obs = ObsOptions()
        opts = ExecutionOptions(obs=obs)
        first = view.materialize("fully-partitioned", options=opts)
        second = view.materialize("fully-partitioned", options=opts)
        assert second.xml == first.xml
        counters = self._counters(obs)
        gauges = obs.metrics.snapshot()["gauges"]
        stats = cache.stats()
        # Published gauges mirror the cache's own lifetime counters.
        assert gauges["plan_cache.hits"] == stats.hits
        assert gauges["plan_cache.misses"] == stats.misses
        assert gauges["plan_cache.hit_rate"] == stats.hit_rate
        # Engine-level hit/miss counters match exactly — each execution is
        # counted once, as a hit or a miss, never both.
        assert counters["plan_cache.hits"] == stats.hits
        assert counters["plan_cache.misses"] == stats.misses
        assert stats.hits == second.report.n_streams
        assert (counters["streams.executed"]
                == first.report.n_streams + second.report.n_streams)

    def test_node_cache_counters_reconcile(self, tiny_db, q1_tree):
        """A sweep that runs the fully partitioned plan three times,
        uncached so that each run executes, counts every node-cache event
        into its observability session."""
        obs = ObsOptions()
        connection = Connection(tiny_db, CostModel())
        held = []

        def progress(done, total):
            cache = connection.engine.node_cache
            held[:] = [cache.items(), cache.stats()]

        sweep = sweep_partitions(
            q1_tree, tiny_db.schema, connection,
            partitions=[fully_partitioned(q1_tree)] * 3, cache=False,
            obs=obs, progress=progress)
        assert len({t.total_ms for t in sweep.timings}) == 1
        counters = self._counters(obs)
        cache = connection.engine.node_cache
        stats = cache.stats()
        # Per-event counters match the cache's lifetime totals exactly —
        # every lookup counted once, as a hit or a miss, never both; a
        # store that only marks a sub-plan as seen is a store, and its
        # marker an entry.
        assert stats.hits > 0 and stats.misses > 0
        assert counters["node_cache.hits"] == stats.hits
        assert counters["node_cache.misses"] == stats.misses
        assert counters["node_cache.stores"] == stats.stores
        items, last = held
        kept = sum(value is not SEEN for _, value in items)
        assert 0 < kept <= last.entries
        assert last.stores == last.entries + kept       # seen, then kept
        # The ended sweep dropped the entries and kept the counters.
        assert len(cache) == stats.entries == stats.current_bytes == 0
        assert stats.stores == last.stores
        assert counters.get("node_cache.evictions", 0) == stats.evictions
        assert stats.invalidations == 0
        assert "node_cache.invalidations" not in counters
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["node_cache.hits"] == stats.hits
        assert gauges["node_cache.entries"] == stats.entries

    def test_node_cache_counters_stay_with_their_session(self, tiny_db,
                                                         q1_tree):
        """Two sweeps on one engine, under different observability
        sessions, each count the events of their own node cache, which
        starts empty; an execution between them counts none."""
        connection = Connection(tiny_db, CostModel())
        partitions = [fully_partitioned(q1_tree),
                      unified_partition(q1_tree)] * 2

        def lookups(registry):
            counters = registry.snapshot()["counters"]
            return (counters.get("node_cache.hits", 0)
                    + counters.get("node_cache.misses", 0))

        caches, counted = [], []
        for _ in range(2):
            obs = ObsOptions()
            sweep_partitions(q1_tree, tiny_db.schema, connection,
                             partitions=partitions, cache=False, obs=obs)
            caches.append(connection.engine.node_cache)
            counted.append(lookups(obs.metrics))
            between = MetricsRegistry()
            connection.engine.execute(
                SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
                    unified_partition(q1_tree))[0].plan,
                metrics=between)
            assert lookups(between) == 0
        assert caches[0] is not caches[1]
        assert counted == [cache.stats().requests for cache in caches]
        assert counted[0] == counted[1] > 0

    def test_cache_replays_shield_a_faulty_source(self, tiny_db,
                                                  tiny_estimator):
        cache = PlanResultCache()
        view = fresh_view(tiny_db, tiny_estimator, cache=cache)
        obs = ObsOptions()
        warm = view.materialize(
            "fully-partitioned", options=ExecutionOptions(obs=obs),
        )
        # With the cache warm, a source failing on every attempt is never
        # contacted: the resilient dispatcher short-circuits to replay.
        shielded = view.materialize(
            "fully-partitioned",
            options=ExecutionOptions(
                obs=obs,
                resilience=Resilience(
                    faults=FaultPolicy(seed=1, error_rate=1.0),
                ),
            ),
        )
        assert shielded.xml == warm.xml
        counters = self._counters(obs)
        # Replays are counted as replays, not as source attempts, and no
        # faults fired — the report agrees.
        assert counters["cache.replays"] == shielded.report.n_streams
        assert shielded.report.resilience.attempts == 0
        assert shielded.report.resilience.faults == 0
        assert "faults.injected" not in counters
        assert "dispatch.attempts" not in counters

    def test_hedged_run_reconciles(self, tiny_db, tiny_estimator):
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize(
            "fully-partitioned",
            options=ExecutionOptions(
                obs=obs, resilience=Resilience(
                    replicas=3, hedge_ms=5.0, retry=RetryPolicy(max_attempts=5),
                    faults=FaultPolicy(seed=3, error_rate=0.3, latency_ms=20.0),
                ),
            ),
        )
        report = result.report
        totals = report.resilience
        counters = self._counters(obs)
        assert totals.hedges > 0
        assert counters["dispatch.attempts"] == totals.attempts
        assert counters.get("dispatch.retries", 0) == totals.retries
        assert counters.get("faults.injected", 0) == totals.faults
        assert counters.get("dispatch.failovers", 0) == totals.failovers
        assert counters.get("dispatch.hedges", 0) == totals.hedges
        assert counters.get("dispatch.hedge_wins", 0) == totals.hedge_wins
        assert math.isclose(
            counters.get("hedge.wait_ms", 0.0), totals.hedge_wait_ms)
        assert math.isclose(
            counters.get("retry.backoff_ms", 0.0), totals.backoff_ms)
        assert math.isclose(
            counters.get("faults.latency_ms", 0.0), totals.fault_latency_ms)
        # The abandoned side of a hedge never charges server time: the
        # per-stream histogram sums exactly to the report's totals, which
        # in turn are byte-for-byte the fault-free figures.
        hist = obs.metrics.snapshot()["histograms"]
        assert hist["stream.query_ms"]["count"] == report.n_streams
        assert math.isclose(hist["stream.query_ms"]["sum"], report.query_ms)
        assert math.isclose(
            hist["stream.transfer_ms"]["sum"], report.transfer_ms
        )
        clean = fresh_view(tiny_db, tiny_estimator).materialize(
            "fully-partitioned",
        )
        assert result.xml == clean.xml
        assert math.isclose(report.query_ms, clean.report.query_ms)

    def test_timeout_counts_no_phantom_attempts(self, tiny_db, tiny_estimator):
        from repro.common.errors import TimeoutExceeded

        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        with pytest.raises(TimeoutExceeded) as info:
            view.materialize(
                "fully-partitioned",
                options=ExecutionOptions(obs=obs, budget_ms=0.01),
                resilience=Resilience(retry=RetryPolicy()),
            )
        report = info.value.report
        counters = self._counters(obs)
        # The interrupted attempt appears in neither the report nor the
        # metrics — they agree exactly.
        assert counters.get("dispatch.attempts", 0) == report.resilience.attempts
        dispatch = spans_named(obs.tracer, "dispatch")[0]
        assert dispatch.attrs.get("timed_out") is True

    def test_streamed_run_traces_and_reconciles(self, tiny_db,
                                                tiny_estimator):
        """A streamed plan goes through the one dispatch loop: one
        ``stream:<label>`` span per cursor under ``dispatch``, bracketing
        the open (its attempts, no rows yet), and each cursor's metrics
        recorded once the merge has drained it — counters that agree with
        the report as an eager run's do."""
        obs = ObsOptions()
        view = fresh_view(tiny_db, tiny_estimator)
        result = view.materialize_to(
            io.StringIO(), "fully-partitioned",
            options=ExecutionOptions(
                obs=obs,
                resilience=Resilience(
                    faults=FaultPolicy(seed=3, error_rate=0.4),
                    retry=RetryPolicy(max_attempts=6),
                ),
            ),
        )
        report = result.report
        [root] = spans_named(obs.tracer, "materialize_to")
        [dispatch] = spans_named(root, "dispatch")
        assert dispatch.attrs["streaming"] is True
        streams = [c for c in dispatch.children
                   if c.name.startswith("stream:")]
        assert [c.name for c in streams] == [
            "stream:" + s.label for s in report.streams]
        assert [c.attrs["attempts"] for c in streams] == [
            s.resilience.attempts for s in report.streams]
        assert all("rows" not in c.attrs and c.sim_ms is None
                   for c in streams)
        assert report.resilience.retries > 0
        counters = self._counters(obs)
        assert counters["dispatch.attempts"] == report.resilience.attempts
        assert counters["dispatch.retries"] == report.resilience.retries
        assert counters["streams.executed"] == report.n_streams == 10
        assert counters["tuples.transferred"] == sum(
            s.rows for s in report.streams) > 0


# ---------------------------------------------------------------------------
# Export helpers on empty sessions


class TestEmptySession:
    def test_exports_work_before_any_run(self):
        obs = ObsOptions()
        assert json.loads(obs.chrome_trace_json()) == []
        assert profile_tree(obs.tracer) == ""
        assert chrome_trace_json(obs.tracer) == "[]"
        assert obs.tracer.roots == []
        assert obs.metrics.snapshot()["counters"] == {}
