"""A blocking client for the query service: JSON request lines out, JSON
header lines and counted document bodies back.

::

    with ServeClient(host, port) as client:
        reply = client.query("q1", tenant="acme", indent=2)
        print(reply["xml"])
        client.mutate("Nation", op="insert", rows=1)

Each method sends one protocol request and returns the response's
payload dict; a ``{"ok": false}`` response raises
:class:`~repro.serve.protocol.ServeError` carrying the server-side
exception type, the stamped tenant/request id, and (for timeouts and
exhausted retries) the partial report.  One client drives one connection and is
not thread-safe — give each client thread its own.

**Transient-failure retry.**  ``retries=N`` makes every call survive up
to N connection-level failures — a dropped socket, a server restart, a
torn response — by reconnecting and resending the same request after a
capped exponential backoff.  Server-side *errors* (a ``{"ok": false}``
response) are never retried: the server answered; retrying is the
caller's decision.  Retried mutations stay **exactly-once**: when
retries are enabled, :meth:`ServeClient.mutate` pins an idempotency key
(a UUID ``request_id``) to the request before the first send, so a
resend of a mutation whose response was lost deduplicates server-side
(and, when the server keeps a store, ``--wal``, even across a crash +
restart in the middle of the retry window).
"""

import socket
import time
import uuid

from repro.serve.protocol import (
    ProtocolError,
    ServeError,
    encode,
    options_to_wire,
    read_response,
)


class ServeClient:
    """One connection to a :class:`~repro.serve.server.Server` front end.

    ``retries`` is the number of *re*-sends after a transient connection
    failure (0 — the default — fails fast); ``backoff_s`` is the first
    retry's sleep, doubling per attempt up to ``max_backoff_s``.
    ``sleep`` is injectable for tests.
    """

    def __init__(self, host, port, timeout=30.0, retries=0,
                 backoff_s=0.05, max_backoff_s=2.0, sleep=time.sleep):
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._sleep = sleep
        self._sock = None
        self._rfile = None
        self._connect()

    def _connect(self):
        self._teardown()
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout,
        )
        self._rfile = self._sock.makefile("rb")

    def _teardown(self):
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self):
        self._teardown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _send_once(self, request):
        if self._sock is None:
            self._connect()
        self._sock.sendall(encode(request))
        try:
            response = read_response(self._rfile)
        except ProtocolError:
            self._teardown()    # out of step with the frames: reconnect
            raise
        if not response.get("ok"):
            raise ServeError(response.get("error", {}))
        return response

    def _call(self, request):
        backoff = self.backoff_s
        attempt = 0
        while True:
            try:
                return self._send_once(request)
            except ServeError:
                raise  # the server answered; not a transient failure
            except (ConnectionError, OSError):
                attempt += 1
                if attempt > self.retries:
                    raise
                self._teardown()
                self._sleep(backoff)
                backoff = min(backoff * 2, self.max_backoff_s)
                try:
                    self._connect()
                except OSError:
                    # Server still down — charge the attempt, keep backing
                    # off; _send_once reconnects when a budget remains.
                    continue

    def ping(self):
        return self._call({"op": "ping"})["pong"]

    def stats(self):
        return self._call({"op": "stats"})["stats"]

    def query(self, query, tenant="default", request_id=None,
              partition=None, root_tag="view", indent=None, options=None):
        """Run ``query`` (a registered name, RXL text, or
        ``{"rxl": ...}``); returns the response dict (``xml``,
        ``report``, ``coalesced``, ``stats``).  ``options`` may be an
        :class:`~repro.core.options.ExecutionOptions` (whitelisted
        fields cross the wire) or a ready wire dict."""
        request = {
            "op": "query", "query": query, "tenant": tenant,
            "root_tag": root_tag,
        }
        if request_id is not None:
            request["id"] = request_id
        if partition is not None:
            request["partition"] = partition
        if indent is not None:
            request["indent"] = indent
        wire = (options if isinstance(options, (dict, type(None)))
                else options_to_wire(options))
        if wire:
            request["options"] = wire
        return self._call(request)

    def explain(self, query, tenant="default", partition=None, options=None):
        request = {"op": "explain", "query": query, "tenant": tenant}
        if partition is not None:
            request["partition"] = partition
        wire = (options if isinstance(options, (dict, type(None)))
                else options_to_wire(options))
        if wire:
            request["options"] = wire
        return self._call(request)["sql"]

    def mutate(self, table, op="insert", rows=1, seed=0, tenant="default",
               request_id=None):
        """Apply a delta; the response carries ``mutated``, ``table``,
        ``generation``, and ``deduplicated``.

        With retries enabled the mutation is pinned to an idempotency
        key before the first send (an explicit ``request_id`` is used as
        given): every resend carries the same id, so a retry of a
        mutation that *did* commit — the response was merely lost —
        returns the recorded result instead of applying twice."""
        if request_id is None and self.retries:
            request_id = f"c-{uuid.uuid4().hex}"
        request = {
            "op": "mutate", "table": table, "mutation": op, "rows": rows,
            "seed": seed, "tenant": tenant,
        }
        if request_id is not None:
            request["id"] = request_id
        return self._call(request)
