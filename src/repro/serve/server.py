"""The multi-tenant query service.

One :class:`Server` wraps one shared :class:`~repro.session.Session` —
so every tenant's requests hit the same plan-result cache, per-view
splice caches, and finished-document cache — and layers the serving
concerns on top:

* **Tenancy** — one quota table (:class:`TenantQuotas`) caps the whole
  requests each tenant may have in flight and sheds a hammering tenant
  with ``OverloadError(reason="tenant")`` before any work is planned.
* **Coalescing** — identical in-flight queries (same view text, plan,
  serialization, execution options, and per-table generation vector)
  share one execution through a :class:`SingleFlight`: the leader runs,
  every follower receives the byte-identical document and report.  The
  key includes the generation vector, so coalescing never spans a
  mutation.  It is the service's one single-flight: requests it does
  not coalesce that miss the plan cache on one plan each evaluate it.
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
speaks the protocol of :mod:`repro.serve.protocol` (JSON lines, a query's
document as a counted body after its header line); in-process
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
from repro.relational.codegen import CODE
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MAX_INDENT,
    MAX_MUTATION_ROWS,
    ProtocolError,
    decode,
    error_to_wire,
    options_from_wire,
    report_to_wire,
    request_int,
    write_response,
)
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


class _Flight:
    """One in-flight computation: its completion flag and outcome."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = False
        self.value = None
        self.error = None


class SingleFlight:
    """Collapse concurrent identical requests into one execution: the
    first caller for a key becomes the *leader* and computes; callers
    arriving while it is in flight block and share its outcome instead of
    redoing the work."""

    def __init__(self):
        self._cv = threading.Condition()
        self._flights = {}

    def do(self, key, fn):
        """Run ``fn()`` single-flighted under ``key``; return
        ``(value, led)``.

        The leader executes ``fn`` and its result — value or raised
        exception — is shared with every follower that arrived while the
        execution was in flight (the exception object itself is re-raised
        in each follower).  ``led`` is True for the caller that actually
        executed."""
        with self._cv:
            flight = self._flights.get(key)
            if flight is not None:
                while not flight.done:
                    self._cv.wait()
                if flight.error is not None:
                    raise flight.error
                return flight.value, False
            flight = self._flights[key] = _Flight()
        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._cv:
                del self._flights[key]
                flight.done = True
                self._cv.notify_all()
        return flight.value, True


class TenantQuotas:
    """The per-tenant quota table: at most ``quota`` whole requests
    (queries/mutations) of one tenant in flight at once.

    ``quotas`` maps a registered tenant to its quota; ``default`` is the
    quota of every other tenant, each counted on its own, so one tenant's
    requests never count against another's.  None is no limit, and such
    a tenant is not counted.  A shed counts in ``metrics`` as
    ``serve.shed``.  A wall-clock guard on real request threads — the
    execution below a request knows nothing of it.
    """

    def __init__(self, default, metrics):
        self.default = default
        self.metrics = metrics
        self.quotas = {}
        self._counts = {}
        self._lock = threading.Lock()

    @contextmanager
    def slot(self, tenant, request_id):
        """Hold one of ``tenant``'s request slots for the body, or shed the
        request with ``OverloadError(reason="tenant")`` carrying its tenant
        and id."""
        counts = None
        with self._lock:
            limit = self.quotas.get(tenant, self.default)
            if limit is not None:
                counts = self._counts.setdefault(
                    tenant, {"admitted": 0, "shed": 0, "inflight": 0})
                if counts["inflight"] >= limit:
                    counts["shed"] += 1
                    self.metrics.inc("serve.shed")
                    raise tag_request(
                        OverloadError(
                            f"tenant quota exceeded: {counts['inflight']} "
                            f"request(s) already in flight (limit {limit})",
                            reason="tenant",
                        ),
                        tenant, request_id,
                    )
                counts["inflight"] += 1
                counts["admitted"] += 1
        try:
            yield
        finally:
            if counts is not None:
                with self._lock:
                    counts["inflight"] -= 1

    def stats(self):
        """``{tenant: {admitted, shed, inflight}}`` of every counted
        tenant."""
        with self._lock:
            return {tenant: dict(counts)
                    for tenant, counts in self._counts.items()}


class Server:
    """An in-process multi-tenant query service over one shared session.

    ``session`` (default: a fresh Configuration-A
    :class:`~repro.session.Session`; build one to choose its database,
    options, document cache or store) is shared by every tenant.
    ``queries`` maps names clients may use on the wire to RXL texts
    (:meth:`register_query` adds more).  ``tenant_quota`` caps the
    requests in flight of each tenant without its own quota
    (:meth:`register_tenant`); None admits them unthrottled.

    The server keeps its own :class:`~repro.obs.metrics.MetricsRegistry`
    (``serve.*`` counters, ``serve.latency_ms`` histogram with
    p50/p95/p99) separate from any per-execution observability session —
    serving metrics are wall-clock and non-deterministic by nature,
    execution metrics stay deterministic.
    """

    def __init__(self, session=None, queries=None, tenant_quota=None):
        self.session = session if session is not None else Session()
        self.metrics = MetricsRegistry()
        self.tenants = TenantQuotas(tenant_quota, self.metrics)
        if self.session.database.store is not None:
            # The store's wal.* counters land next to the serve.* ones.
            self.session.database.store.metrics = self.metrics
        self._queries = dict(queries or {})
        self._rw = _ReadWriteLock()
        self._flight = SingleFlight()
        self._log = []
        self._log_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_seq = 0
        #: Auto-generated request ids carry a per-process token so ids
        #: never collide across a restart — the store's dedup map must see
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

    def register_tenant(self, name, quota):
        """Let tenant ``name`` have at most ``quota`` requests in flight
        (None: no limit) instead of the server's ``tenant_quota``."""
        self.tenants.quotas[name] = quota
        return name

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
        checkpoint the store (folding SQLite's write-ahead file into the
        database file), and close it.  Returns True when every in-flight
        request finished inside ``timeout``."""
        drained = self.drain(timeout)
        self.shutdown()
        store = self.session.database.store
        if store is not None:
            try:
                store.checkpoint()
            finally:
                store.close()
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
        start = time.perf_counter()
        self._enter_request(tenant, request_id)
        try:
            with self.tenants.slot(tenant, request_id):
                try:
                    yield request_id
                except Exception as exc:
                    self.metrics.inc("serve.errors")
                    raise tag_request(exc, tenant, request_id)
        finally:
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
        query, logged, durable when a store is attached, and immediately
        visible (dependent cache keys move with the table generation).

        ``request_id`` makes the mutation **exactly-once**: a repeat of
        an already-committed id (a client retry after a lost response —
        or, with a store, after a server crash and restart) returns the
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
        session's cache stats (``plan_cache``; all of them in ``caches``,
        where ``estimates`` counts for the database: its estimator is
        shared with every other session over it)."""
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
            "tenants": self.tenants.stats(),
            "latency_ms": snapshot["histograms"].get("serve.latency_ms"),
            "log_entries": len(self._log),
        }
        store = self.session.database.store
        if store is not None:
            stats["wal"] = {
                **counters("wal", "appends", "checkpoints", "dedup_hits"),
                "size_bytes": store.size_bytes(),
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
            **summary(engine.cache, session.silkroute.estimator.cache,
                      session._views, VIEW_DEFINITIONS, CODE),
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
        """Bind the socket front end and serve it from a background
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
        """Stop the socket front end (in-process serving keeps working).
        ``serve_forever`` clears ``_tcp`` when its loop ends, which may be
        inside ``tcp.shutdown()``: both are read once."""
        tcp, thread = self._tcp, self._tcp_thread
        if tcp is not None:
            tcp.shutdown()
            tcp.server_close()
            if thread is not None:
                thread.join(timeout=5)
            self._tcp = None
            self._tcp_thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: JSON-line requests in, responses out through
    :func:`~repro.serve.protocol.write_response` (a query's document as a
    counted body after its JSON header line, one write per response).

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
        server = self.server.repro_server
        while True:
            try:
                line = self.rfile.readline(MAX_FRAME_BYTES + 1)
            except (ConnectionError, OSError):
                server.metrics.inc("serve.client_disconnects")
                return
            if not line:
                return
            if len(line) > MAX_FRAME_BYTES:
                if not self._drain_oversized(server):
                    return
                server.metrics.inc("serve.oversized_frames")
                response = {"ok": False, "error": error_to_wire(
                    ProtocolError(
                        f"frame exceeds {MAX_FRAME_BYTES} bytes"
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
                write_response(self.wfile, response)
            except (ConnectionError, OSError):
                server.metrics.inc("serve.client_disconnects")
                return

    def _drain_oversized(self, server):
        """Swallow the rest of an oversized frame up to its newline so
        the next read starts on a frame boundary; False when the client
        disconnected (or the frame never ends within reason)."""
        for _ in range(1024):  # caps drained garbage at ~1024 frames
            try:
                chunk = self.rfile.readline(MAX_FRAME_BYTES + 1)
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
