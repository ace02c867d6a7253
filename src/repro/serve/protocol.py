"""The query service's wire protocol: JSON header lines, and a query's
document as a counted body.

A client sends one request object per line and reads one response per
request, in order — the framing stays simple on purpose so any language
(or ``nc``) can speak it.  Requests name an operation::

    {"op": "query",  "query": "q1", "tenant": "acme", "id": "r-1",
     "options": {"style": "outer-join", "workers": 2}}
    {"op": "mutate", "table": "Nation", "mutation": "insert", "rows": 2}
    {"op": "explain", "query": {"rxl": "..."}}
    {"op": "stats"}
    {"op": "ping"}

``query`` is either a name the server registered
(:meth:`~repro.serve.server.Server.register_query`) or ``{"rxl": ...}``
inline text.  Responses are ``{"ok": true, ...}`` with the operation's
payload, or ``{"ok": false, "error": {...}}`` where the error object
carries the exception type, message, and — for errors raised inside the
execution — the originating ``tenant``/``request_id`` stamped by
:func:`~repro.common.errors.tag_request`.  Every response is one JSON
line except a query's (:func:`write_response`): its header line carries
``"xml_bytes": N`` in place of the document, and the document's N UTF-8
bytes follow as they are, then one newline — so ``nc`` shows the header
line and then the document text, and neither end escapes the document
into a JSON string.

Only a whitelisted subset of
:class:`~repro.core.options.ExecutionOptions` crosses the wire
(:data:`WIRE_OPTIONS`); everything else — observability sessions,
replica pool objects, request contexts, durability paths — is the
server's business.  Simulated timings are deterministic, so ``NaN`` (a
timed-out sum) is the only non-JSON float a report can hold; it crosses
as ``null``.

The wire is hardened, not trusted: a request frame longer than
:data:`MAX_FRAME_BYTES` or one that is not valid JSON gets a structured
``{"ok": false}`` error response (tenant/request id stamped when the
frame was parseable enough to carry them) and the connection *stays
open* — a malformed request must not tear down a connection other
requests are multiplexed on.
"""

import json
import math

from repro.common.errors import ReproError
from repro.core.options import FLAT_OPTIONS, options_from_flat
from repro.relational.faults import FaultPolicy

#: Hard cap on one request frame (bytes, newline included).  Far above
#: any legitimate request — inline RXL texts are a few KiB — and far
#: below what a hostile or confused client could make the server buffer.
MAX_FRAME_BYTES = 1 << 20

#: What a client may set of :class:`~repro.core.options.ExecutionOptions`:
#: the flat names the command line spells too.
WIRE_OPTIONS = tuple(FLAT_OPTIONS)

#: What one request may ask of a shared server, whatever its options and
#: fields say — constants of the service, not options: a document indented
#: deeper or a delta, a replica set, a dispatch or a retry loop larger than
#: this is refused before it costs anything.
MAX_INDENT = 8
MAX_MUTATION_ROWS = 10_000
WIRE_OPTION_LIMITS = {"replicas": 8, "workers": 32, "retries": 16}


class ProtocolError(ReproError, ValueError):
    """A request or response that does not follow the protocol."""


def encode(obj):
    """``obj`` as one protocol line (bytes, newline-terminated)."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line):
    """One protocol line (bytes or str) back to its object."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    line = line.strip()
    if not line:
        raise ProtocolError("empty protocol line")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("protocol line is not a JSON object")
    return obj


def write_response(wfile, response):
    """Send ``response`` as one frame in one write.  A query's ``xml``
    goes as a counted body: the header line carries ``"xml_bytes"``, the
    length of the document's UTF-8 encoding, and those bytes and one
    newline follow.  (Header and body in two writes would meet Nagle's
    algorithm and the reader's delayed ACK.)"""
    if "xml" not in response:
        wfile.write(encode(response))
    else:
        header = dict(response)
        body = header.pop("xml").encode("utf-8")
        header["xml_bytes"] = len(body)
        wfile.write(b"".join((encode(header), body, b"\n")))
    wfile.flush()


def read_response(rfile):
    """One response frame from ``rfile``, a query's body back under
    ``"xml"`` as text.  A frame cut short — no header newline, or fewer
    than ``xml_bytes`` + 1 body bytes before the connection ends — raises
    :class:`ConnectionError`, a transient failure a client may resend
    on; a header or body that breaks the framing is a
    :class:`ProtocolError`."""
    line = rfile.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    if not line.endswith(b"\n"):
        # The server died mid-write.  The request's fate is unknown —
        # exactly what idempotency keys are for.
        raise ConnectionError("torn response (connection lost mid-frame)")
    response = decode(line)
    if "xml_bytes" not in response:
        return response
    size = response.pop("xml_bytes")
    if isinstance(size, bool) or not isinstance(size, int) or size < 0:
        raise ProtocolError(
            f"'xml_bytes' must be a non-negative integer, got {size!r}")
    body = rfile.read(size + 1)
    if len(body) <= size:
        raise ConnectionError("torn response (connection lost mid-body)")
    if body[size] != ord("\n"):
        raise ProtocolError("a response body must end in a newline")
    response["xml"] = body[:size].decode("utf-8")
    return response


def request_int(request, name, default, low, high):
    """The integer ``request[name]`` (``default`` when absent or null),
    refused with a :class:`ProtocolError` naming the field unless it is an
    integer in ``low..high``."""
    value = request.get(name)
    if value is None:
        return default
    if (isinstance(value, bool) or not isinstance(value, int)
            or not low <= value <= high):
        raise ProtocolError(
            f"{name!r} must be an integer in {low}..{high}, got {value!r}"
        )
    return value


def options_from_wire(wire):
    """A client's ``options`` object to :class:`ExecutionOptions`.

    Unknown keys are refused (a typo should not silently run with
    defaults), every value is checked as the command line checks its
    flags (:func:`~repro.core.options.options_from_flat`, which also
    builds the resilience policies from ``retries``/``fault_seed``/
    ``fault_rate``), and the sizes are held to
    :data:`WIRE_OPTION_LIMITS`.
    """
    if wire is None:
        return None
    if not isinstance(wire, dict):
        raise ProtocolError("'options' is not a JSON object")
    unknown = set(wire) - set(WIRE_OPTIONS)
    if unknown:
        raise ProtocolError(f"unknown wire option(s): {sorted(unknown)}")
    for name, limit in WIRE_OPTION_LIMITS.items():
        request_int(wire, name, None, 1, limit)
    try:
        return options_from_flat(wire)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def options_to_wire(options):
    """The wire dict a client sends for ``options`` (inverse of
    :func:`options_from_wire` over the whitelisted subset).  What the flat
    names cannot spell — a fault policy per replica, a live replica pool —
    is refused with :class:`ProtocolError`."""
    if options is None:
        return None
    wire = {}
    if options.style is not None:
        wire["style"] = options.style.value
    wire["reduce"] = bool(options.reduce)
    for name in ("budget_ms", "workers"):
        value = getattr(options, name)
        if value is not None:
            wire[name] = value
    resilience = options.resilience
    if resilience is not None:
        if (resilience.faults is not None
                and not isinstance(resilience.faults, FaultPolicy)
                or not isinstance(resilience.replicas, (int, type(None)))):
            raise ProtocolError(
                "the wire carries one fault policy and a replica count, "
                "not per-replica policies or a live pool")
        if resilience.retry is not None:
            wire["retries"] = resilience.retry.max_attempts
        if resilience.faults is not None:
            wire["fault_seed"] = resilience.faults.seed
            wire["fault_rate"] = resilience.faults.error_rate
        for name in ("hedge_ms", "replicas"):
            value = getattr(resilience, name)
            if value is not None:
                wire[name] = value
    return wire


def _finite(value):
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_to_wire(report):
    """A :class:`~repro.core.silkroute.PlanReport` summary as plain JSON
    (non-finite simulated sums — a timed-out plan — cross as null).  The
    resilience totals cross only when resilience ran."""
    if report is None:
        return None
    wire = {
        "n_streams": report.n_streams,
        "query_ms": _finite(report.query_ms),
        "transfer_ms": _finite(report.transfer_ms),
        "elapsed_query_ms": _finite(report.elapsed_query_ms),
        "elapsed_total_ms": _finite(report.elapsed_total_ms),
        "workers": report.workers,
        "timed_out": report.timed_out,
        "timed_out_label": report.timed_out_label,
    }
    resilience = report.resilience
    if resilience is not None:
        wire.update(
            attempts=resilience.attempts,
            retries=resilience.retries,
            faults_injected=resilience.faults,
            failovers=resilience.failovers,
            hedges=resilience.hedges,
            hedge_wins=resilience.hedge_wins,
            degraded_streams=list(resilience.degraded_streams),
        )
    return wire


def error_to_wire(exc):
    """An exception as the protocol's error object, carrying the stamped
    tenant/request id and the overload/timeout specifics when present."""
    error = {
        "type": type(exc).__name__,
        "message": str(exc),
        "tenant": getattr(exc, "tenant", None),
        "request_id": getattr(exc, "request_id", None),
    }
    reason = getattr(exc, "reason", None)
    if reason is not None:
        error["reason"] = reason
    stream_label = getattr(exc, "stream_label", None)
    if stream_label is not None:
        error["stream_label"] = stream_label
    report = getattr(exc, "report", None)
    if report is not None:
        error["report"] = report_to_wire(report)
    return error


class ServeError(ReproError):
    """A server-side failure surfaced to a protocol client.

    Mirrors the error object: ``kind`` is the original exception type
    name, ``tenant``/``request_id`` the stamped request identity,
    ``reason`` the overload reason (e.g. ``"tenant"`` for a quota shed),
    and ``report`` the partial plan-report dict when the failure carried
    one.
    """

    def __init__(self, error):
        self.kind = error.get("type", "Error")
        self.tenant = error.get("tenant")
        self.request_id = error.get("request_id")
        self.reason = error.get("reason")
        self.stream_label = error.get("stream_label")
        self.report = error.get("report")
        super().__init__(f"{self.kind}: {error.get('message', '')}")
