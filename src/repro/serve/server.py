"""The multi-tenant query service.

One :class:`Server` wraps one shared :class:`~repro.session.Session` —
so every tenant's requests hit the same plan-result cache, per-view
splice caches, and finished-document cache — and layers the serving
concerns on top:

* **Tenancy** — each tenant is admitted by its own
  :class:`~repro.serve.tenants.AdmissionController`: the whole-request
  quota (``max_inflight_requests``) sheds a hammering tenant with
  ``OverloadError(reason="tenant")`` before any work is planned.
* **Coalescing** — identical in-flight queries (same view text, plan,
  serialization, execution options, and per-table generation vector)
  share one execution through a
  :class:`~repro.relational.cache.SingleFlight`: the leader runs, every
  follower receives the byte-identical document and report.  The key
  includes the generation vector, so coalescing never spans a mutation.
* **Consistency** — mutations take the write side of a reader/writer
  lock; queries share the read side.  Every admitted request is
  appended to an execution log whose order is, by construction, a
  serialization the concurrent run is equivalent to: replaying the log
  serially on a fresh database reproduces every document byte-for-byte
  and every simulated timing exactly (:meth:`Server.replay` — the soak
  tests' oracle).
* **Liveness of IVM** — a mutation bumps table generations through the
  shared session, so the next query invalidates exactly the dependent
  plan/splice/document entries (PR 7's ``dependency_key``), live, while
  other tenants keep reading.

The socket front end (:meth:`Server.start` / :meth:`Server.serve_forever`)
speaks the JSON-line protocol of :mod:`repro.serve.protocol`; in-process
callers use :meth:`Server.query` / :meth:`Server.mutate` directly.
"""

import socketserver
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import replace

from repro.common.errors import OverloadError, QueryError, ReproError, tag_request
from repro.core.options import resolve_options
from repro.core.silkroute import VIEW_DEFINITIONS
from repro.obs.metrics import MetricsRegistry
from repro.relational.cache import SingleFlight
from repro.relational.codegen import CODE
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MAX_INDENT,
    MAX_MUTATION_ROWS,
    ProtocolError,
    error_to_wire,
    options_from_wire,
    report_to_wire,
    request_int,
)
from repro.serve.tenants import TenantRegistry
from repro.session import QueryResult, Session


class _ReadWriteLock:
    """A writer-preferring reader/writer lock.

    Queries share the read side; a mutation's write side waits for the
    in-flight readers to drain while blocking new ones — so writers
    cannot starve and every request falls on exactly one side of every
    mutation (the property the execution log's serializability rests
    on).
    """

    def __init__(self):
        self._cv = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cv:
            while self._writer or self._writers_waiting:
                self._cv.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cv:
                self._readers -= 1
                if not self._readers:
                    self._cv.notify_all()

    @contextmanager
    def write(self):
        with self._cv:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cv.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cv:
                self._writer = False
                self._cv.notify_all()


class Server:
    """An in-process multi-tenant query service over one shared session.

    ``session`` (or the ``db``/``options``/``document_cache_bytes``
    used to build one) is shared by every tenant.  ``queries`` maps
    names clients may use on the wire to RXL texts
    (:meth:`register_query` adds more).  ``default_policy`` is the
    admission policy applied to tenants without their own
    (:meth:`register_tenant`); None admits unregistered tenants
    unthrottled.

    The server keeps its own :class:`~repro.obs.metrics.MetricsRegistry`
    (``serve.*`` counters, ``serve.latency_ms`` histogram with
    p50/p95/p99) separate from any per-execution observability session —
    serving metrics are wall-clock and non-deterministic by nature,
    execution metrics stay deterministic.
    """

    def __init__(self, session=None, db=None, queries=None,
                 default_policy=None, options=None,
                 document_cache_bytes=None, wal=None, checkpoint_every=None,
                 max_frame_bytes=None):
        if session is None:
            session = Session(db, options=options,
                              document_cache_bytes=document_cache_bytes,
                              wal=wal, checkpoint_every=checkpoint_every)
        self.session = session
        self.registry = TenantRegistry(default_policy)
        self.metrics = MetricsRegistry()
        if self.session.wal is not None:
            # The log's wal.* counters land next to the serve.* ones.
            self.session.wal.metrics = self.metrics
        self.max_frame_bytes = (max_frame_bytes if max_frame_bytes is not None
                                else MAX_FRAME_BYTES)
        self._queries = dict(queries or {})
        self._rw = _ReadWriteLock()
        self._flight = SingleFlight()
        self._log = []
        self._log_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_seq = 0
        #: Auto-generated request ids carry a per-process token so ids
        #: never collide across a restart — the WAL's dedup map must see
        #: a *retry* as equal and a *new request* as fresh.
        self._id_token = uuid.uuid4().hex[:8]
        self._draining = False
        self._inflight = 0
        self._drain_cv = threading.Condition()
        self._tcp = None
        self._tcp_thread = None

    # -- registration ------------------------------------------------------

    def register_query(self, name, rxl_text):
        """Expose ``rxl_text`` to clients under ``name``."""
        self._queries[name] = rxl_text
        return name

    def register_tenant(self, name, policy=None):
        """Register tenant ``name`` under an
        :class:`~repro.serve.tenants.AdmissionPolicy` (or an int —
        a bare ``max_inflight_requests`` quota)."""
        return self.registry.register(name, policy)

    def queries(self):
        return dict(self._queries)

    # -- request plumbing --------------------------------------------------

    def _request_id(self, request_id):
        if request_id is not None:
            return request_id
        with self._id_lock:
            self._next_seq += 1
            return f"r-{self._id_token}-{self._next_seq}"

    # -- drain -------------------------------------------------------------

    def _enter_request(self, tenant, request_id):
        """Count one request in flight; shed it when draining.  The shed
        is typed (``OverloadError(reason="draining")``) so a client's
        retry logic can distinguish a restarting server from a full one."""
        with self._drain_cv:
            if self._draining:
                self.metrics.inc("serve.draining_shed")
                raise tag_request(
                    OverloadError("server is draining", reason="draining"),
                    tenant, request_id,
                )
            self._inflight += 1

    def _exit_request(self):
        with self._drain_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain_cv.notify_all()

    @property
    def draining(self):
        return self._draining

    def drain(self, timeout=30.0):
        """Stop admitting new requests and wait (up to ``timeout``
        seconds) for the in-flight ones to finish; returns True when the
        server is empty.  Idempotent — the SIGTERM path of graceful
        shutdown."""
        with self._drain_cv:
            self._draining = True
            deadline = time.monotonic() + timeout
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._drain_cv.wait(remaining)
            return True

    def undrain(self):
        """Re-open admission (tests and planned maintenance windows)."""
        with self._drain_cv:
            self._draining = False

    def terminate(self, timeout=30.0):
        """Graceful SIGTERM shutdown: drain, stop the socket front end,
        checkpoint the WAL (so the next start recovers from a snapshot,
        not a long log replay), and close it.  Returns True when every
        in-flight request finished inside ``timeout``."""
        drained = self.drain(timeout)
        self.shutdown()
        wal = self.session.wal
        if wal is not None:
            try:
                wal.checkpoint(self.session.database)
            finally:
                wal.close()
        return drained

    def _resolve_rxl(self, query):
        if isinstance(query, dict):
            query = query.get("rxl")
        if not isinstance(query, str):
            raise QueryError(f"unservable query {query!r}")
        rxl = self._queries.get(query)
        if rxl is not None:
            return rxl
        head = query.split(None, 1)
        if head and head[0].lower() in ("from", "construct"):
            return query  # inline RXL text
        raise QueryError(
            f"unknown query {query!r} (registered: {sorted(self._queries)})"
        )

    def _admit(self, tenant, request_id):
        """Per-tenant whole-request admission; returns the controller to
        release (None when the tenant is unthrottled)."""
        controller = self.registry.controller(tenant)
        if controller is not None:
            try:
                controller.acquire_request(tenant, request_id)
            except Exception:
                self.metrics.inc("serve.shed")
                self.metrics.inc(f"serve.tenant.{tenant}.shed")
                raise
        return controller

    @contextmanager
    def _request(self, tenant, request_id):
        """The bracket every served request runs in; yields the request's
        id (generated when the client sent none).

        Counts the request, sheds it while draining or over the tenant's
        quota (a shed is not an error) and holds the tenant's slot for the
        body.  Whatever the body raises — an unknown query or table, a
        malformed option, a failed execution — is one ``serve.errors`` and
        leaves stamped with the request's identity; every request past the
        drain gate lands in ``serve.latency_ms``."""
        request_id = self._request_id(request_id)
        self.metrics.inc("serve.requests")
        self.metrics.inc(f"serve.tenant.{tenant}.requests")
        start = time.perf_counter()
        self._enter_request(tenant, request_id)
        controller = None
        try:
            controller = self._admit(tenant, request_id)
            try:
                yield request_id
            except Exception as exc:
                self.metrics.inc("serve.errors")
                raise tag_request(exc, tenant, request_id)
        finally:
            if controller is not None:
                controller.release_request()
            self._exit_request()
            self.metrics.observe(
                "serve.latency_ms", (time.perf_counter() - start) * 1000.0,
            )

    def _canonical_options(self, options, overrides):
        """The request's resolved options with what cannot key coalescing
        stripped: the observability session hashes by identity (and the
        execution log replays without live objects)."""
        opts = resolve_options(
            options if options is not None else self.session.options,
            overrides,
        )
        return replace(opts, obs=None)

    def _append_log(self, kind, **payload):
        with self._log_lock:
            self._log.append(dict(kind=kind, **payload))

    def execution_log(self):
        """The admitted requests, in an order the concurrent execution is
        equivalent to (every query falls between the mutations it saw)."""
        with self._log_lock:
            return tuple(self._log)

    # -- the service surface ----------------------------------------------

    def query(self, query, tenant="default", request_id=None,
              partition=None, root_tag="view", indent=None, options=None,
              obs=None, **overrides):
        """Serve one query request; returns a
        :class:`~repro.session.QueryResult` whose ``coalesced`` flag
        says whether this request shared another's execution.

        ``query`` is a registered name or RXL text; ``options`` and
        keyword ``overrides`` merge over the session defaults exactly as
        in :meth:`Session.materialize`.  ``obs`` attaches an
        observability session to executions this request *leads* (a
        coalesced follower performs no execution to observe).
        """
        with self._request(tenant, request_id) as request_id:
            with self._rw.read():
                rxl = self._resolve_rxl(query)
                opts = self._canonical_options(options, overrides)
                generations = tuple(
                    sorted(self.session.database.table_generations().items())
                )
                key = (rxl, partition, root_tag, indent, opts, generations)

                def run():
                    # Stamped here, by the leader: a coalesced follower
                    # shares this exception and keeps the leader's
                    # identity (_request stamps only what is unstamped).
                    try:
                        return self.session.materialize(
                            rxl, partition=partition, root_tag=root_tag,
                            indent=indent, options=replace(opts, obs=obs),
                        )
                    except Exception as exc:
                        raise tag_request(exc, tenant, request_id)

                shared, led = self._flight.do(key, run)
                # Logged only once the execution succeeded (a failed
                # request produced no document to replay) — still under
                # the read lock, so no mutation lands between the
                # generation snapshot and the log entry.
                self._append_log(
                    "query", tenant=tenant, request_id=request_id, rxl=rxl,
                    partition=partition, root_tag=root_tag, indent=indent,
                    options=opts,
                )
            if not led:
                self.metrics.inc("serve.coalesced")
            stats = dict(shared.stats)
            stats["serve"] = {"tenant": tenant, "request_id": request_id}
            return QueryResult(
                xml=shared.xml, report=shared.report, tagger=shared.tagger,
                stats=stats, coalesced=not led,
            )

    def explain(self, query, tenant="default", request_id=None,
                partition=None, options=None, **overrides):
        """The SQL the plan would send (no execution, no admission —
        explain is free)."""
        with self._rw.read():
            rxl = self._resolve_rxl(query)
            opts = resolve_options(
                options if options is not None else self.session.options,
                overrides,
            )
            return self.session.explain(rxl, partition, options=opts)

    def mutate(self, table, op="insert", rows=1, seed=0, tenant="default",
               request_id=None):
        """Apply a delta through the service: exclusive against every
        query, logged, durable when a WAL is attached, and immediately
        visible (dependent cache keys move with the table generation).

        ``request_id`` makes the mutation **exactly-once**: a repeat of
        an already-committed id (a client retry after a lost response —
        or, with a WAL, after a server crash and restart) returns the
        recorded result without re-applying the delta
        (:meth:`Session.mutate <repro.session.Session.mutate>` keeps the
        record) and is not appended to the execution log again."""
        with self._request(tenant, request_id) as request_id:
            with self._rw.write():
                result = self.session.mutate(table, op=op, rows=rows,
                                             seed=seed, request_id=request_id)
                deduplicated = result.stats.get("deduplicated", False)
                if not deduplicated:
                    self._append_log(
                        "mutate", tenant=tenant, request_id=request_id,
                        table=table, op=op, rows=rows, seed=seed,
                    )
            self.metrics.inc(
                "serve.deduped" if deduplicated else "serve.mutations"
            )
            stats = dict(result.stats)
            stats["serve"] = {"tenant": tenant, "request_id": request_id}
            return QueryResult(
                mutated=result.mutated, table=result.table, stats=stats,
            )

    def stats(self):
        """Service counters: requests/coalesced/shed/mutations/errors,
        per-tenant admission, latency percentiles, and the shared
        session's cache stats (``plan_cache``; all of them in ``caches``)."""
        def counters(layer, *names):
            return {name: self.metrics.counter(f"{layer}.{name}")
                    for name in names}

        snapshot = self.metrics.snapshot()
        stats = {
            **counters("serve", "requests", "coalesced", "shed", "mutations",
                       "errors", "deduped", "draining_shed",
                       "client_disconnects", "malformed_frames",
                       "oversized_frames"),
            "draining": self._draining,
            "tenants": self.registry.stats(),
            "latency_ms": snapshot["histograms"].get("serve.latency_ms"),
            "log_entries": len(self._log),
        }
        wal = self.session.wal
        if wal is not None:
            stats["wal"] = {
                **counters("wal", "appends", "fsyncs", "checkpoints",
                           "dedup_hits"),
                "size_bytes": wal.size_bytes(),
            }
        cache = self.session.silkroute.cache
        if cache is not None:
            stats["plan_cache"] = cache.stats().as_dict()
        stats["caches"] = self._cache_stats()
        return stats

    def _cache_stats(self):
        """``stats()`` of every bounded map behind a request, a view's own
        under ``by_view`` and the name (else the text) clients call it."""
        def summary(*caches):
            return {
                cache.name: {
                    name: value
                    for name, value in cache.stats().as_dict().items()
                    if value != float("inf")    # unbounded: not JSON
                }
                for cache in caches if cache is not None
            }

        session, engine = self.session, self.session.connection.engine
        names = {rxl: name for name, rxl in self._queries.items()}
        return {
            **summary(engine.cache, engine.node_cache,
                      session.silkroute.estimator.cache, session._views,
                      VIEW_DEFINITIONS, CODE),
            "by_view": {
                names.get(rxl, rxl): summary(
                    view.instance_cache, view.document_cache)
                for rxl, view in session._views.items()
            },
        }

    # -- the serial oracle -------------------------------------------------

    def replay(self, session=None):
        """Re-run the execution log serially against ``session`` (default:
        a fresh Configuration-A session, matching ``Server()``'s default
        database) and return the per-entry
        :class:`~repro.session.QueryResult` list.

        Because the log is a serialization the concurrent run was
        equivalent to, the replay's documents are byte-identical and its
        simulated timings exactly those the live clients saw — the soak
        tests diff them directly.
        """
        if session is None:
            session = Session()
        results = []
        for entry in self.execution_log():
            if entry["kind"] == "query":
                results.append(session.materialize(
                    entry["rxl"], partition=entry["partition"],
                    root_tag=entry["root_tag"], indent=entry["indent"],
                    options=entry["options"],
                ))
            else:
                results.append(session.mutate(
                    entry["table"], op=entry["op"], rows=entry["rows"],
                    seed=entry["seed"],
                ))
        return results

    # -- the socket front end ----------------------------------------------

    def handle_request(self, request):
        """One protocol request object to its response object (shared by
        the socket handler and the protocol tests)."""
        op = request.get("op")
        tenant = request.get("tenant", "default")
        request_id = request.get("id")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "query":
                result = self.query(
                    request.get("query"), tenant=tenant,
                    request_id=request_id,
                    partition=request.get("partition"),
                    root_tag=request.get("root_tag", "view"),
                    indent=request_int(request, "indent", None, 0,
                                       MAX_INDENT),
                    options=options_from_wire(request.get("options")),
                )
                return {
                    "ok": True,
                    "xml": result.xml,
                    "coalesced": result.coalesced,
                    "report": report_to_wire(result.report),
                    "stats": result.stats.get("serve"),
                }
            if op == "explain":
                result = self.explain(
                    request.get("query"), tenant=tenant,
                    request_id=request_id,
                    partition=request.get("partition"),
                    options=options_from_wire(request.get("options")),
                )
                return {"ok": True, "sql": list(result.sql)}
            if op == "mutate":
                result = self.mutate(
                    request.get("table"),
                    op=request.get("mutation", "insert"),
                    rows=request_int(request, "rows", 1, 1,
                                     MAX_MUTATION_ROWS),
                    seed=int(request.get("seed", 0)),
                    tenant=tenant, request_id=request_id,
                )
                return {
                    "ok": True,
                    "mutated": result.mutated,
                    "table": result.table,
                    "generation": result.stats.get("generation"),
                    "deduplicated": bool(result.stats.get("deduplicated")),
                }
            raise ProtocolError(f"unknown op {op!r}")
        except (ReproError, ProtocolError, ValueError, TypeError) as exc:
            # Stamp the request identity so even pre-dispatch failures
            # (unknown op, malformed options) name their originator.
            return {"ok": False,
                    "error": error_to_wire(tag_request(exc, tenant,
                                                       request_id))}

    def start(self, host="127.0.0.1", port=0):
        """Bind the JSON-line front end and serve it from a background
        thread; returns the bound ``(host, port)``."""
        if self._tcp is not None:
            raise RuntimeError("server already started")
        self._tcp = _TcpFrontEnd((host, port), _Handler)
        self._tcp.repro_server = self
        self._tcp_thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-serve", daemon=True,
        )
        self._tcp_thread.start()
        return self._tcp.server_address[:2]

    def serve_forever(self, host="127.0.0.1", port=0, ready=None):
        """Bind and serve on the calling thread (the CLI's entry point).
        ``ready`` is called with the bound ``(host, port)`` once
        listening."""
        tcp = self._tcp = _TcpFrontEnd((host, port), _Handler)
        tcp.repro_server = self
        if ready is not None:
            ready(tcp.server_address[:2])
        try:
            tcp.serve_forever()
        finally:
            # A concurrent terminate()/shutdown() may have closed and
            # cleared self._tcp already; closing twice is harmless.
            tcp.server_close()
            self._tcp = None

    def shutdown(self):
        """Stop the socket front end (in-process serving keeps working)."""
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
            if self._tcp_thread is not None:
                self._tcp_thread.join(timeout=5)
            self._tcp = None
            self._tcp_thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: JSON-line requests in, JSON-line responses out.

    Hardened against the wire's realities: an oversized frame is drained
    and answered with a structured error (the connection survives), a
    malformed frame gets the same treatment, and a client that vanished
    mid-read or mid-response (``BrokenPipeError``/``ConnectionResetError``
    — also surfacing as ``ConnectionError``/``OSError`` from the socket
    layer) is counted in ``serve.client_disconnects`` and the handler
    returns cleanly — the request slot and thread are released, never
    left writing to a dead socket.
    """

    def handle(self):
        from repro.serve.protocol import decode, encode

        server = self.server.repro_server
        limit = server.max_frame_bytes
        while True:
            try:
                line = self.rfile.readline(limit + 1)
            except (ConnectionError, OSError):
                server.metrics.inc("serve.client_disconnects")
                return
            if not line:
                return
            if len(line) > limit:
                if not self._drain_oversized(server):
                    return
                server.metrics.inc("serve.oversized_frames")
                response = {"ok": False, "error": error_to_wire(
                    ProtocolError(
                        f"frame exceeds {limit} bytes"
                    ))}
            elif not line.strip():
                continue
            else:
                try:
                    request = decode(line)
                except ProtocolError as exc:
                    server.metrics.inc("serve.malformed_frames")
                    response = {"ok": False, "error": error_to_wire(exc)}
                else:
                    try:
                        response = server.handle_request(request)
                    except Exception as exc:  # never kill the loop
                        response = {"ok": False, "error": error_to_wire(exc)}
            try:
                self.wfile.write(encode(response))
                self.wfile.flush()
            except (ConnectionError, OSError):
                server.metrics.inc("serve.client_disconnects")
                return

    def _drain_oversized(self, server):
        """Swallow the rest of an oversized frame up to its newline so
        the next read starts on a frame boundary; False when the client
        disconnected (or the frame never ends within reason)."""
        for _ in range(1024):  # caps drained garbage at ~1024 * limit
            try:
                chunk = self.rfile.readline(server.max_frame_bytes + 1)
            except (ConnectionError, OSError):
                server.metrics.inc("serve.client_disconnects")
                return False
            if not chunk:
                return False
            if chunk.endswith(b"\n"):
                return True
        return False


class _TcpFrontEnd(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
