"""The query service's wire protocol: one JSON object per line.

A client sends one request object per line and reads one response
object per line, in order — the framing is trivial on purpose so any
language (or ``nc``) can speak it.  Requests name an operation::

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
:func:`~repro.common.errors.tag_request`.

Only a whitelisted subset of
:class:`~repro.core.options.ExecutionOptions` crosses the wire
(:data:`WIRE_OPTIONS`); everything else — observability sessions,
replica pool objects, request contexts, durability paths — is the
server's business.  Simulated timings are deterministic, so ``NaN`` (a
timed-out sum) is the only non-JSON float a report can hold; it crosses
as ``null``.

The wire is hardened, not trusted: a frame longer than
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
    :func:`options_from_wire` over the whitelisted subset)."""
    if options is None:
        return None
    wire = {}
    if options.style is not None:
        wire["style"] = options.style.value
    wire["reduce"] = bool(options.reduce)
    if options.retry is not None:
        wire["retries"] = options.retry.max_attempts
    if options.faults is not None:
        wire["fault_seed"] = options.faults.seed
        wire["fault_rate"] = options.faults.error_rate
    for name in ("budget_ms", "hedge_ms", "workers", "replicas"):
        value = getattr(options, name)
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
    (non-finite simulated sums — a timed-out plan — cross as null)."""
    if report is None:
        return None
    return {
        "n_streams": report.n_streams,
        "query_ms": _finite(report.query_ms),
        "transfer_ms": _finite(report.transfer_ms),
        "elapsed_query_ms": _finite(report.elapsed_query_ms),
        "elapsed_total_ms": _finite(report.elapsed_total_ms),
        "workers": report.workers,
        "timed_out": report.timed_out,
        "timed_out_label": report.timed_out_label,
        "attempts": report.attempts,
        "retries": report.retries,
        "faults_injected": report.faults_injected,
        "failovers": report.failovers,
        "hedges": report.hedges,
        "hedge_wins": report.hedge_wins,
        "degraded_streams": list(report.degraded_streams),
    }


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
