"""The multi-tenant query service: coalescing, tenancy, the wire
protocol, and the serial-replay consistency oracle.

The load-bearing contracts:

* identical in-flight queries share exactly ONE underlying execution and
  every coalesced client receives the byte-identical document;
* a tenant past its ``max_inflight_requests`` quota is shed with
  ``OverloadError(reason="tenant")`` stamped with its tenant/request id,
  without touching other tenants;
* errors raised inside the execution surface the originating
  tenant/request id and (for sheds and timeouts) a partial report;
* any concurrent mix of queries and mutations is equivalent to replaying
  the server's execution log serially on a fresh database — XML
  byte-for-byte, simulated timings exactly (the hypothesis soak, on both
  engines).
"""

import os
import shutil
import socket
import struct
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2
from repro.common.errors import (
    OverloadError,
    QueryError,
    TimeoutExceeded,
    tag_request,
)
from repro.core.options import ExecutionOptions
from repro.core.silkroute import PlanReport
from repro.core.sqlgen import PlanStyle
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.estimator import MAX_ESTIMATES
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience
from repro.serve.tenants import AdmissionPolicy
from repro.serve import Server, ServeClient, ServeError
from repro.serve.protocol import (
    WIRE_OPTIONS,
    ProtocolError,
    decode,
    encode,
    error_to_wire,
    options_from_wire,
    options_to_wire,
    report_to_wire,
)
from repro.session import Session, apply_delta
from repro.tpch.generator import TpchGenerator, TpchScale

TINY = TpchScale(suppliers=8, parts=16, customers=10, orders=40)

QUERIES = {"q1": QUERY_1, "q2": QUERY_2}


def fresh_db(seed=42):
    return TpchGenerator(scale=TINY, seed=seed).generate()


def make_server(**kwargs):
    kwargs.setdefault("session", Session(fresh_db()))
    kwargs.setdefault("queries", QUERIES)
    return Server(**kwargs)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _GatedSession:
    """Blocks every ``materialize`` on ``go`` and counts executions —
    the hook the coalescing/quota tests use to pin a leader in flight."""

    def __init__(self, server):
        self.server = server
        self.go = threading.Event()
        self.calls = []
        self._real = server.session.materialize

    def __enter__(self):
        def gated(*args, **kwargs):
            self.calls.append(threading.get_ident())
            assert self.go.wait(30), "gated materialize never released"
            return self._real(*args, **kwargs)

        self.server.session.materialize = gated
        return self

    def __exit__(self, *exc_info):
        self.go.set()
        self.server.session.materialize = self._real


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        obj = {"op": "query", "query": "q1", "indent": 2}
        line = encode(obj)
        assert line.endswith(b"\n")
        assert decode(line) == obj

    def test_decode_refuses_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"   \n")
        with pytest.raises(ProtocolError):
            decode(b"{not json}\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_options_roundtrip(self):
        opts = ExecutionOptions(
            style=PlanStyle.OUTER_UNION, reduce=True, budget_ms=125.0,
            workers=2, resilience=Resilience(
                retry=RetryPolicy(max_attempts=3), replicas=2, hedge_ms=4.0,
                faults=FaultPolicy(seed=7, error_rate=0.25),
            ),
        )
        back = options_from_wire(options_to_wire(opts))
        assert back.style is PlanStyle.OUTER_UNION
        assert back.reduce is True
        assert back.budget_ms == 125.0
        assert back.workers == 2
        assert back.resilience == opts.resilience
        assert set(options_to_wire(opts)) == set(WIRE_OPTIONS)

    def test_in_process_resilience_is_refused(self, tiny_db):
        """Per-replica fault policies and a live pool have no flat name:
        a client asking to send one is told so, before anything is sent."""
        from repro.relational.resilience import ReplicaPool

        pool = ReplicaPool.from_connection(Connection(tiny_db, CostModel()), 2)
        for resilience in (Resilience(faults=[FaultPolicy(), None]),
                           Resilience(replicas=pool)):
            with pytest.raises(ProtocolError, match="per-replica"):
                options_to_wire(ExecutionOptions(resilience=resilience))

    def test_unknown_wire_option_is_refused(self):
        with pytest.raises(ProtocolError, match="workerz"):
            options_from_wire({"workerz": 4})
        with pytest.raises(ProtocolError, match="style"):
            options_from_wire({"style": "sideways-join"})
        # The oracles are not a request's to choose: neither knob is on
        # the wire any more.
        for gone in ("engine", "backend"):
            with pytest.raises(ProtocolError, match=gone):
                options_from_wire({gone: "sqlite"})

    def test_none_options_pass_through(self):
        assert options_from_wire(None) is None
        assert options_to_wire(None) is None

    def test_report_nan_crosses_as_null(self):
        report = PlanReport(
            partition=frozenset(), n_streams=3, query_ms=float("nan"),
            transfer_ms=float("nan"), streams=[], timed_out=True,
        )
        wire = report_to_wire(report)
        assert wire["query_ms"] is None
        assert wire["transfer_ms"] is None
        assert wire["n_streams"] == 3
        assert wire["timed_out"] is True

    def test_error_wire_carries_request_identity(self):
        exc = tag_request(
            OverloadError("too busy", reason="tenant"), "acme", "r-7",
        )
        wire = error_to_wire(exc)
        assert wire["type"] == "OverloadError"
        assert wire["tenant"] == "acme"
        assert wire["request_id"] == "r-7"
        assert wire["reason"] == "tenant"
        err = ServeError(wire)
        assert err.kind == "OverloadError"
        assert err.tenant == "acme" and err.request_id == "r-7"
        assert err.reason == "tenant"


class TestServerBasics:
    def test_registered_name_matches_direct_session(self):
        server = make_server()
        direct = Session(fresh_db()).materialize(
            QUERY_1, "unified", indent=2,
        )
        served = server.query("q1", partition="unified", indent=2)
        assert served.xml == direct.xml
        assert served.report.query_ms == direct.report.query_ms
        assert served.report.transfer_ms == direct.report.transfer_ms
        assert served.coalesced is False
        assert served.stats["serve"]["tenant"] == "default"

    def test_inline_rxl_is_accepted(self):
        server = make_server()
        by_name = server.query("q1", partition="unified")
        inline = server.query(QUERY_1, partition="unified")
        assert inline.xml == by_name.xml

    def test_a_request_starts_no_threads(self, monkeypatch):
        """``workers`` (the wire option ``{"workers": 32}``) is a simulated
        dispatch width: it sets the report's makespans and cannot make the
        server start a thread."""
        server = make_server()
        narrow = server.query("q1", partition="fully-partitioned")
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda thread: (started.append(thread.name), start(thread)),
        )
        wide = Server(session=Session(fresh_db()), queries=QUERIES).query(
            "q1", partition="fully-partitioned", workers=32,
        )
        assert started == []
        assert wide.xml == narrow.xml
        assert wide.report.workers == 32
        assert wide.report.elapsed_query_ms == max(
            s.server_ms for s in wide.report.streams
        )
        assert narrow.report.elapsed_query_ms == wide.report.query_ms

    def test_unknown_query_name_is_refused(self):
        server = make_server()
        with pytest.raises(QueryError, match="q1"):
            server.query("q99")
        assert server.execution_log() == ()

    def test_explain_returns_sql_without_logging(self):
        server = make_server()
        result = server.explain("q1", partition="unified")
        assert len(result.sql) == 1
        assert server.execution_log() == ()

    def test_stats_counters(self):
        server = make_server()
        server.query("q1", partition="unified")
        server.mutate("Nation", op="insert", rows=1)
        stats = server.stats()
        assert stats["requests"] == 2
        assert stats["mutations"] == 1
        assert stats["coalesced"] == 0
        assert stats["errors"] == 0
        assert stats["log_entries"] == 2
        assert stats["latency_ms"]["count"] == 2

    def test_inline_texts_cannot_pin_views_forever(self):
        """Every distinct inline text defines a view; the session keeps
        the most recently used ones, and an evicted view asked for again
        is simply defined again."""
        server = make_server()
        views = server.session._views
        assert views.max_entries == 256
        views.max_entries = 3
        texts = [QUERY_1 + " " * i for i in range(8)]
        documents = [
            server.query(text, partition="unified").xml for text in texts
        ]
        assert len(set(documents)) == 1
        assert len(views) == 3
        assert views.stats().evictions == 5
        assert views.peek(texts[0]) is None
        again = server.query(texts[0], partition="unified")
        assert again.xml == documents[0]
        assert len(views) == 3 and views.stats().evictions == 6

    def test_inline_texts_cannot_pin_estimates_forever(self):
        """The estimator lives as long as the session and costs every
        view it is asked to plan; it keeps the most recently used
        estimates, and an evicted one asked for again is simply computed
        again — same plan, same document as under the full bound."""
        server, roomy = make_server(), make_server()
        estimates = server.session.silkroute.estimator.cache
        unevicted = roomy.session.silkroute.estimator.cache
        assert estimates.max_entries == MAX_ESTIMATES
        estimates.max_entries = 32      # below what one planning asks for
        for query in ("q1", "q2"):
            for style in PlanStyle:
                got = server.query(query, style=style)
                want = roomy.query(query, style=style)
                assert got.report.partition == want.report.partition
                assert got.xml == want.xml
                assert len(estimates) == 32
        assert len(unevicted) == unevicted.stats().misses > 32
        assert estimates.stats().evictions == estimates.stats().misses - 32
        assert estimates.stats().misses > unevicted.stats().misses  # asked for again

    def test_stats_walk_every_cache_on_the_request_path(self):
        server = make_server()
        inline = QUERY_2 + " "      # a text no name is registered for
        for _ in range(2):
            server.query("q1")
            server.query(inline, partition="fully-partitioned")
        server.mutate("Supplier", op="update", rows=2, seed=1)
        server.query("q1")
        caches = server.handle_request({"op": "stats"})["stats"]["caches"]
        assert decode(encode(caches)) == caches     # crosses the wire
        assert set(caches) == {
            "plan_cache", "node_cache", "estimates", "views",
            "view_definitions", "generated_code", "by_view",
        }
        assert caches["plan_cache"] == decode(encode(
            server.stats()["plan_cache"]))
        assert caches["views"]["entries"] == 2
        # Each view is defined once in the process; the definitions (and
        # their decoders) are shared, so no view lists them as its own.
        assert caches["view_definitions"]["entries"] >= 2
        # A registered view goes by its name, an inline one by its text.
        assert set(caches["by_view"]) == {"q1", inline}
        for view_caches in caches["by_view"].values():
            assert set(view_caches) == {"instance_cache", "document_cache"}
        q1 = caches["by_view"]["q1"]
        assert q1["document_cache"]["entries"] == 1
        assert q1["document_cache"]["invalidations"] == 1
        assert q1["document_cache"]["hit_rate"] == pytest.approx(1 / 3)
        # The last tagging, which the read after the write re-tagged from:
        # 2 of its suppliers changed, the rest were copied.
        splice = q1["instance_cache"]
        assert splice["entries"] == 1
        assert splice["hits"] > 0
        assert splice["misses"] - splice["hits"] == 4   # (n + 2) - (n - 2)
        q2 = caches["by_view"][inline]
        assert q2["instance_cache"]["entries"] == 1
        assert q2["document_cache"]["current_bytes"] > 0
        assert caches["plan_cache"]["invalidations"] >= 1
        # Greedy planning of q1 asked the oracle; explicit plans do not.
        assert caches["estimates"]["entries"] == caches["estimates"]["misses"]
        assert 0 < caches["estimates"]["entries"] <= MAX_ESTIMATES

    def test_mutation_is_immediately_visible(self):
        server = make_server()
        before = server.query("q1", partition="unified")
        delta = server.mutate("Supplier", op="update", rows=2, seed=1)
        assert delta.mutated == 2
        after = server.query("q1", partition="unified")
        assert after.xml != before.xml

        cold = Session(fresh_db(), cache=False)
        apply_delta(cold.database, "Supplier", op="update", rows=2, seed=1)
        oracle = cold.materialize(QUERY_1, "unified")
        assert after.xml == oracle.xml
        assert after.report.query_ms == oracle.report.query_ms

    def test_replay_reproduces_a_serial_run(self):
        server = make_server()
        live = [
            server.query("q1", partition="unified", indent=2),
            server.mutate("Nation", op="insert", rows=2, seed=4),
            server.query("q1", partition="unified", indent=2),
            server.query("q2", partition="fully-partitioned"),
        ]
        replayed = server.replay(session=Session(fresh_db()))
        assert len(replayed) == len(live)
        for mine, theirs in zip(live, replayed):
            assert theirs.xml == mine.xml
            if mine.report is not None:
                assert theirs.report.query_ms == mine.report.query_ms
                assert theirs.report.transfer_ms == mine.report.transfer_ms
            else:
                assert theirs.mutated == mine.mutated


class TestCoalescing:
    def test_identical_inflight_queries_share_one_execution(self):
        server = make_server()
        n = 8
        results = [None] * n
        errors = []

        def client(i):
            try:
                results[i] = server.query(
                    "q1", tenant=f"t{i}", request_id=f"r{i}",
                    partition="unified",
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with _GatedSession(server) as gate:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            # One leader inside the gated materialize, and all n-1
            # followers parked on the single-flight condition variable.
            assert wait_until(lambda: len(gate.calls) == 1)
            assert wait_until(
                lambda: len(server._flight._cv._waiters) == n - 1)
            gate.go.set()
            for t in threads:
                t.join(30)
        assert not errors
        assert len(gate.calls) == 1, "coalesced requests re-executed"
        assert sum(r.coalesced for r in results) == n - 1
        assert len({r.xml for r in results}) == 1
        stats = server.stats()
        assert stats["requests"] == n
        assert stats["coalesced"] == n - 1
        assert stats["log_entries"] == n

    def test_different_serializations_do_not_coalesce(self):
        server = make_server()
        results = {}

        def client(indent):
            results[indent] = server.query(
                "q1", partition="unified", indent=indent,
            )

        with _GatedSession(server) as gate:
            threads = [threading.Thread(target=client, args=(indent,))
                       for indent in (None, 2)]
            for t in threads:
                t.start()
            assert wait_until(lambda: len(gate.calls) == 2)
            gate.go.set()
            for t in threads:
                t.join(30)
        assert len(gate.calls) == 2
        assert not results[None].coalesced and not results[2].coalesced
        assert results[None].xml != results[2].xml

    def test_coalescing_follower_shares_leader_error(self):
        server = make_server()
        seen = []

        def client(i):
            try:
                server.query("q1", request_id=f"r{i}",
                             partition="fully-partitioned",
                             budget_ms=0.001)
            except TimeoutExceeded as exc:
                seen.append(exc)

        with _GatedSession(server) as gate:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            threads[0].start()
            assert wait_until(lambda: len(gate.calls) == 1)
            threads[1].start()
            assert wait_until(
                lambda: len(server._flight._cv._waiters) == 1)
            gate.go.set()
            for t in threads:
                t.join(30)
        assert len(gate.calls) == 1
        assert len(seen) == 2
        assert server.stats()["errors"] >= 1
        assert server.execution_log() == ()


class TestTenancy:
    def test_quota_shed_carries_tenant_and_request_id(self):
        server = make_server()
        server.register_tenant("greedy", 1)
        done = []

        def leader():
            done.append(server.query("q1", tenant="greedy",
                                     request_id="lead",
                                     partition="unified"))

        with _GatedSession(server) as gate:
            t = threading.Thread(target=leader)
            t.start()
            assert wait_until(lambda: len(gate.calls) == 1)
            with pytest.raises(OverloadError) as info:
                server.query("q1", tenant="greedy", request_id="over",
                             partition="unified")
            gate.go.set()
            t.join(30)
        exc = info.value
        assert exc.reason == "tenant"
        assert exc.tenant == "greedy"
        assert exc.request_id == "over"
        assert done and done[0].xml
        stats = server.stats()
        assert stats["shed"] == 1 and stats["errors"] == 0   # not an error
        assert stats["tenants"]["greedy"]["shed"] == 1
        assert stats["tenants"]["greedy"]["inflight"] == 0

    def test_other_tenants_are_unaffected_by_a_quota(self):
        server = make_server()
        server.register_tenant("greedy", 1)
        server.query("q1", tenant="polite", partition="unified")
        server.query("q1", tenant="polite", partition="unified")
        assert server.stats()["shed"] == 0

    def test_default_policy_covers_unregistered_tenants(self):
        server = make_server(
            default_policy=AdmissionPolicy(max_inflight_requests=1),
        )
        with _GatedSession(server) as gate:
            t = threading.Thread(
                target=lambda: server.query("q1", tenant="anon",
                                            partition="unified"))
            t.start()
            assert wait_until(lambda: len(gate.calls) == 1)
            with pytest.raises(OverloadError):
                server.query("q1", tenant="anon", partition="unified")
            # A different unregistered tenant has its own controller.
            gate.go.set()
            t.join(30)
        server.query("q1", tenant="other", partition="unified")
        assert server.stats()["tenants"]["anon"]["shed"] == 1


class TestErrorStamping:
    def test_timeout_carries_request_identity_and_partial_report(self):
        server = make_server()
        with pytest.raises(TimeoutExceeded) as info:
            server.query("q1", tenant="acme", request_id="rq-9",
                         partition="fully-partitioned", budget_ms=0.001)
        exc = info.value
        assert exc.tenant == "acme"
        assert exc.request_id == "rq-9"
        assert exc.report is not None
        assert server.stats()["errors"] == 1
        assert server.execution_log() == ()

    def test_every_failed_request_counts_one_error(self):
        """Whatever an admitted request fails on — resolving its query,
        its options or its table, as much as executing — is one
        ``serve.errors`` and leaves stamped with the request's identity:
        ``query`` and ``mutate`` run in one bracket, which also gives the
        tenant's one slot back every time."""
        server = make_server()
        server.register_tenant("acme", 1)
        probes = [
            {"op": "query", "query": "nope"},
            {"op": "query", "query": 7},
            {"op": "mutate", "table": "NoSuchTable"},
        ]
        for n, request in enumerate(probes, 1):
            reply = server.handle_request(
                dict(request, tenant="acme", id=f"p-{n}"))
            assert reply["ok"] is False
            assert reply["error"]["tenant"] == "acme"
            assert reply["error"]["request_id"] == f"p-{n}"
            assert server.stats()["errors"] == n
        with pytest.raises(TypeError) as info:
            server.query("q1", tenant="acme", request_id="p-4",
                         bogus_option=1)
        assert info.value.request_id == "p-4"
        stats = server.stats()
        assert stats["errors"] == stats["requests"] == 4
        assert stats["shed"] == 0 and stats["latency_ms"]["count"] == 4
        assert stats["tenants"]["acme"]["inflight"] == 0
        assert server.execution_log() == ()


class TestSocketFrontEnd:
    def test_end_to_end_over_a_socket(self):
        with make_server() as server:
            host, port = server.start()
            direct = server.query("q1", partition="unified", indent=2)
            with ServeClient(host, port) as client:
                assert client.ping() is True
                reply = client.query("q1", partition="unified", indent=2,
                                     tenant="acme", request_id="w-1")
                assert reply["xml"] == direct.xml
                assert reply["report"]["query_ms"] == \
                    direct.report.query_ms
                assert reply["stats"] == {"tenant": "acme",
                                          "request_id": "w-1"}
                sql = client.explain("q1", partition="unified")
                assert len(sql) == 1
                mutated = client.mutate("Nation", op="insert", rows=2)
                assert mutated["mutated"] == 2
                assert mutated["table"] == "Nation"
                stats = client.stats()
                assert stats["requests"] >= 3
                assert stats["mutations"] == 1

    def test_wire_options_drive_the_execution(self):
        with make_server() as server:
            host, port = server.start()
            with ServeClient(host, port) as client:
                reply = client.query(
                    "q1", partition="fully-partitioned",
                    options={"workers": 3, "style": "outer-union"},
                )
                assert reply["report"]["workers"] == 3

    def test_server_errors_surface_as_serve_errors(self):
        with make_server() as server:
            host, port = server.start()
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as info:
                    client.query("nope")
                assert info.value.kind == "QueryError"
                with pytest.raises(ServeError) as info:
                    client.query("q1", partition="fully-partitioned",
                                 options={"budget_ms": 0.001},
                                 tenant="acme", request_id="w-9")
                err = info.value
                assert err.kind == "TimeoutExceeded"
                assert err.tenant == "acme"
                assert err.request_id == "w-9"
                assert err.report is not None
                # The connection survives failed requests, and the server
                # counted both: the one it could not resolve as much as
                # the one it could not finish.
                assert client.ping() is True
                assert client.stats()["errors"] == 2

    def test_malformed_line_does_not_kill_the_connection(self):
        with make_server() as server:
            host, port = server.start()
            client = ServeClient(host, port)
            try:
                client._sock.sendall(b"this is not json\n")
                response = decode(client._rfile.readline())
                assert response["ok"] is False
                assert client.ping() is True
            finally:
                client.close()

    def test_handle_request_refuses_unknown_ops(self):
        server = make_server()
        response = server.handle_request({"op": "reboot"})
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"


class TestDrain:
    def test_drain_sheds_with_typed_reason(self):
        server = make_server()
        assert server.drain() is True
        assert server.draining is True
        with pytest.raises(OverloadError) as info:
            server.query("q1", tenant="acme", request_id="d-1")
        exc = info.value
        assert exc.reason == "draining"
        assert exc.tenant == "acme"
        assert exc.request_id == "d-1"
        stats = server.stats()
        assert stats["draining"] is True
        assert stats["draining_shed"] == 1
        server.undrain()
        assert server.query("q1").xml  # admission re-opened

    def test_drain_waits_for_inflight_requests(self):
        server = make_server()
        results = {}
        drained = {}
        with _GatedSession(server) as gate:
            worker = threading.Thread(
                target=lambda: results.update(q=server.query("q1")))
            worker.start()
            assert wait_until(lambda: gate.calls)
            drainer = threading.Thread(
                target=lambda: drained.update(ok=server.drain(timeout=30)))
            drainer.start()
            time.sleep(0.05)
            # The pinned request holds the drain open...
            assert not drained
            # ...while new arrivals are shed, not queued.
            with pytest.raises(OverloadError):
                server.query("q1")
            gate.go.set()
            drainer.join(30)
        worker.join(30)
        assert drained.get("ok") is True
        assert results["q"].xml  # the in-flight request completed normally

    def test_drain_times_out_when_requests_hang(self):
        server = make_server()
        with _GatedSession(server) as gate:
            worker = threading.Thread(target=lambda: server.query("q1"))
            worker.start()
            assert wait_until(lambda: gate.calls)
            assert server.drain(timeout=0.05) is False
            gate.go.set()
        worker.join(30)
        server.undrain()

    def test_terminate_checkpoints_the_wal(self):
        wal_dir = tempfile.mkdtemp(prefix="serve-wal-")
        try:
            server = Server(db=fresh_db(), queries=QUERIES, wal=wal_dir)
            server.mutate("Nation", op="insert", rows=2, request_id="t-1")
            gens = server.session.database.table_generations()
            assert server.terminate() is True
            # The snapshot absorbed the log: the next start recovers from
            # it with nothing to replay.
            assert os.path.getsize(os.path.join(wal_dir, "wal.log")) == 8
            restarted = Server(db=fresh_db(), queries=QUERIES, wal=wal_dir)
            assert restarted.session.recovery.records_scanned == 0
            assert restarted.session.database.table_generations() == gens
            # And the idempotency map survived the checkpoint.
            replay = restarted.mutate("Nation", op="insert", rows=2,
                                      request_id="t-1")
            assert replay.stats.get("deduplicated") is True
            restarted.session.wal.close()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)


def _query_with(**options):
    return {"op": "query", "query": "q1", "options": options}


#: (field the refusal must name, request): what one request may not ask of
#: a shared server.  Each was answered ``ok`` — or with a bare TypeError or
#: a timeout on "nanms" — before the wire checked what the CLI checks.
_OUT_OF_RANGE = [
    ("rows", {"op": "mutate", "table": "LineItem", "mutation": "delete",
              "rows": -1}),
    ("rows", {"op": "mutate", "table": "Orders", "mutation": "update",
              "rows": -1}),
    ("rows", {"op": "mutate", "table": "Nation", "mutation": "delete",
              "rows": 0}),
    ("rows", {"op": "mutate", "table": "Nation", "rows": 10_001}),
    ("indent", {"op": "query", "query": "q1", "indent": 100_000}),
    ("indent", {"op": "query", "query": "q1", "indent": "x"}),
    ("replicas", _query_with(replicas=20_000)),
    ("workers", _query_with(workers=-5)),
    ("workers", _query_with(workers=33)),
    ("retries", _query_with(retries=0)),
    ("retries", _query_with(retries=17)),
    ("fault_rate", _query_with(fault_rate=9)),
    # Not out of range but gone (stream admission went in PR 24): a
    # deleted option is refused by name like any unknown one.
    ("max_concurrent", _query_with(max_concurrent=0)),
    ("budget_ms", _query_with(budget_ms=-1)),
    ("hedge_ms", _query_with(hedge_ms="soon")),
]


class TestFrameHardening:
    @pytest.mark.parametrize(
        "field,request_", _OUT_OF_RANGE,
        ids=[f"{field}-{i}" for i, (field, _) in enumerate(_OUT_OF_RANGE)],
    )
    def test_out_of_range_request_is_refused(self, field, request_):
        with make_server() as server:
            database = server.session.database

            def state():
                return (database.table_generations(),
                        {name: len(t) for name, t in database.tables.items()})

            before = state()
            direct = server.handle_request(dict(request_))
            assert direct["ok"] is False
            assert direct["error"]["type"] == "ProtocolError"
            assert field in direct["error"]["message"]
            host, port = server.start()
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as refused:
                    client._call(dict(request_))
                assert refused.value.kind == "ProtocolError"
                assert field in str(refused.value)
                # The same connection answers the next, valid request.
                assert client.query("q1", indent=2)["xml"].startswith("<view>")
            assert state() == before

    def test_oversized_frame_gets_structured_error(self):
        with make_server(max_frame_bytes=512) as server:
            host, port = server.start()
            client = ServeClient(host, port)
            try:
                client._sock.sendall(b'{"op": "ping", "pad": "' +
                                     b"x" * 2048 + b'"}\n')
                response = decode(client._rfile.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"
                assert "exceeds 512 bytes" in response["error"]["message"]
                # The frame was drained to its newline: the connection
                # survives and the next request parses cleanly.
                assert client.ping() is True
                assert server.stats()["oversized_frames"] == 1
            finally:
                client.close()

    def test_malformed_frame_is_counted(self):
        with make_server() as server:
            host, port = server.start()
            client = ServeClient(host, port)
            try:
                client._sock.sendall(b"this is not json\n")
                response = decode(client._rfile.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"
                assert client.ping() is True
                assert server.stats()["malformed_frames"] == 1
            finally:
                client.close()

    def test_disconnect_mid_response_releases_the_slot(self):
        # A client that vanishes (RST via SO_LINGER-0 close) while its
        # query executes: the handler's write fails, the disconnect is
        # counted, and the server keeps serving other clients.
        with make_server() as server:
            host, port = server.start()
            with _GatedSession(server) as gate:
                sock = socket.create_connection((host, port), timeout=10)
                sock.sendall(encode({"op": "query", "query": "q1"}))
                assert wait_until(lambda: gate.calls)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                gate.go.set()
            assert wait_until(
                lambda: server.metrics.counter("serve.client_disconnects") >= 1
            ), "disconnect never counted"
            with ServeClient(host, port) as client:
                assert client.ping() is True


class TestClientRetry:
    def test_retry_survives_a_server_restart(self):
        sleeps = []
        with make_server() as server:
            host, port = server.start()
            direct = server.query("q1", partition="unified")
            client = ServeClient(host, port, retries=3, backoff_s=0.01,
                                 sleep=sleeps.append)
            try:
                assert client.ping() is True
                # Restart the front end AND sever the established
                # connection (shutdown() only closes the listener; the
                # per-connection handler threads live on).
                server.shutdown()
                server.start(host, port)  # same port, new listener
                client._sock.shutdown(socket.SHUT_RDWR)
                reply = client.query("q1", partition="unified")
                assert reply["xml"] == direct.xml
                assert sleeps, "the dead connection should have cost a retry"
            finally:
                client.close()

    def test_backoff_doubles_and_caps(self):
        sleeps = []
        with make_server() as server:
            host, port = server.start()
            client = ServeClient(host, port, retries=4, backoff_s=0.1,
                                 max_backoff_s=0.25, sleep=sleeps.append)
            assert client.ping() is True
        # Listener gone for good; sever the established pipe too (the
        # per-connection handler outlives the listener), so every
        # attempt must reconnect — and fail.
        client._sock.shutdown(socket.SHUT_RDWR)
        with pytest.raises((ConnectionError, OSError)):
            client.ping()
        assert sleeps == [0.1, 0.2, 0.25, 0.25]
        client.close()

    def test_server_errors_are_never_retried(self):
        sleeps = []
        with make_server() as server:
            host, port = server.start()
            with ServeClient(host, port, retries=5, backoff_s=0.01,
                             sleep=sleeps.append) as client:
                with pytest.raises(ServeError):
                    client.query("nope")
                assert sleeps == []  # the server answered; no retry

    def test_retried_mutation_is_exactly_once(self):
        with make_server() as server:
            host, port = server.start()
            with ServeClient(host, port, retries=3, backoff_s=0.01,
                             sleep=lambda s: None) as client:
                first = client.mutate("Nation", op="insert", rows=2,
                                      request_id="x-1")
                assert first["deduplicated"] is False
                # The resend (response lost, client retried) returns the
                # recorded result instead of applying twice.
                second = client.mutate("Nation", op="insert", rows=2,
                                       request_id="x-1")
                assert second["deduplicated"] is True
                assert second["mutated"] == first["mutated"]
                assert second["generation"] == first["generation"]
                assert server.stats()["deduped"] == 1
                # ... and the replayable log holds the request once.
                assert [entry["request_id"]
                        for entry in server.execution_log()] == ["x-1"]
                # A fresh call (retries pin a NEW auto id) applies.
                third = client.mutate("Nation", op="insert", rows=1, seed=9)
                assert third["deduplicated"] is False

    def test_retried_mutation_dedups_across_wal_restart(self):
        wal_dir = tempfile.mkdtemp(prefix="serve-wal-")
        try:
            server = Server(db=fresh_db(), queries=QUERIES, wal=wal_dir)
            host, port = server.start()
            client = ServeClient(host, port, retries=3, backoff_s=0.01,
                                 sleep=lambda s: None)
            first = client.mutate("Supplier", op="update", rows=2,
                                  request_id="x-9")
            server.shutdown()
            server.session.wal.close()
            # Full process-style restart: fresh base, recover from disk,
            # bind the SAME port — the client's retry rides through it.
            restarted = Server(db=fresh_db(), queries=QUERIES, wal=wal_dir)
            restarted.start(host, port)
            client._sock.shutdown(socket.SHUT_RDWR)  # sever the old pipe
            replay = client.mutate("Supplier", op="update", rows=2,
                                   request_id="x-9")
            assert replay["deduplicated"] is True
            assert replay["mutated"] == first["mutated"]
            client.close()
            restarted.shutdown()
            restarted.session.wal.close()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)


# -- the soak: concurrent mixes == serial replay ---------------------------

_QUERY_OPS = st.tuples(
    st.just("query"),
    st.sampled_from(["q1", "q2"]),
    st.sampled_from(["unified", "fully-partitioned"]),
    st.sampled_from([None, 2]),
)
_MUTATE_OPS = st.tuples(
    st.just("mutate"),
    st.sampled_from(["Nation", "Supplier", "Customer"]),
    st.sampled_from(["insert", "update"]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=5),
)
_CLIENT_PLANS = st.lists(
    st.lists(st.one_of(_QUERY_OPS, _MUTATE_OPS), min_size=1, max_size=3),
    min_size=8, max_size=8,
)


class TestSoak:
    """N concurrent clients issuing query/mutation mixes against one
    server are equivalent to replaying its execution log serially on a
    fresh database: byte-identical XML, identical simulated timings."""

    @pytest.mark.parametrize("engine", ["batch", "tuple"])
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plans=_CLIENT_PLANS)
    def test_concurrent_run_equals_serial_replay(self, engine, plans):
        server = Server(
            session=Session(Connection(fresh_db(), CostModel(),
                                       engine=engine)),
            queries=QUERIES,
        )
        live = {}
        errors = []
        barrier = threading.Barrier(len(plans))

        def client(ci, ops):
            try:
                barrier.wait(30)
                for oi, op in enumerate(ops):
                    rid = f"c{ci}-{oi}"
                    if op[0] == "query":
                        _, name, partition, indent = op
                        live[rid] = server.query(
                            name, tenant=f"t{ci}", request_id=rid,
                            partition=partition, indent=indent,
                        )
                    else:
                        _, table, mop, rows, seed = op
                        # A per-request-unique seed: two concurrent
                        # inserts with one seed would synthesize the
                        # same unique-column values (an application
                        # conflict, not a serving property).
                        live[rid] = server.mutate(
                            table, op=mop, rows=rows,
                            seed=seed * 100 + ci * 10 + oi,
                            tenant=f"t{ci}", request_id=rid,
                        )
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(ci, ops))
                   for ci, ops in enumerate(plans)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads), "soak deadlocked"
        assert not errors, errors

        log = server.execution_log()
        assert len(log) == sum(len(ops) for ops in plans)
        replayed = server.replay(session=Session(fresh_db()))
        for entry, theirs in zip(log, replayed):
            mine = live[entry["request_id"]]
            if entry["kind"] == "query":
                assert theirs.xml == mine.xml
                assert theirs.report.query_ms == mine.report.query_ms
                assert theirs.report.transfer_ms == mine.report.transfer_ms
            else:
                assert theirs.mutated == mine.mutated
