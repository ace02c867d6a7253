"""Structured tracing: nested spans over the wall and simulated clocks.

The execution pipeline (plan → reduce → sqlgen → dispatch → per-stream
execution → merge → tag) is instrumented with *spans*: named, attributed
intervals that nest into a tree.  A span records

* the **wall clock** (``time.perf_counter``) — when the harness actually
  entered and left the stage, the only non-deterministic part of a trace;
* the **simulated clock** (``sim_ms``) — the deterministic simulated
  duration the stage charged (per-stream ``server_ms + transfer_ms``,
  retry backoff, injected fault latency), set explicitly by the
  instrumentation because simulated time is an accounting construct, not
  something a clock can observe;
* **attributes** (``attrs``) and point-in-time **events** — retries,
  fault draws, cache replays, degradations.

Span nesting follows the *logical* structure, not the thread structure:
:meth:`Tracer.span` maintains a per-thread current-span stack, so the
server's request threads can share one tracer without their spans
interleaving, and an explicit ``parent`` hangs a span opened on one
thread under a span of another.  The dispatcher and the sweep need
neither — they run on the caller's thread, so a ``stream:<label>`` span
nests under its ``dispatch`` span by position.  All tree mutation is
lock-protected; spans from any number of threads may attach
concurrently.

The **no-overhead-when-off contract**: every instrumentation point in the
library defaults to :data:`NULL_TRACER`, whose :meth:`~NullTracer.span`
returns one shared no-op context manager and allocates nothing.  No
instrumentation is per-row — spans and events are per stage and per
stream — so the tracing-off hot path costs a handful of attribute reads
per materialization (asserted < 2% by ``benchmarks/test_obs.py``).
"""

import threading
import time


class Span:
    """One traced interval: a node of the trace tree.

    ``wall_start_s``/``wall_end_s`` are ``time.perf_counter`` readings
    (``wall_end_s`` is None while the span is open); ``sim_ms`` is the
    simulated duration attributed to the span (None when the stage has no
    simulated cost).  ``attrs`` may be amended after the span closes (via
    :meth:`set`) — e.g. the dispatch span learns its simulated makespan
    only when the report is assembled.
    """

    __slots__ = ("name", "attrs", "children", "events", "wall_start_s",
                 "wall_end_s", "sim_ms", "thread_id", "_tracer")

    def __init__(self, name, attrs, tracer, thread_id):
        self.name = name
        self.attrs = attrs
        self.children = []
        self.events = []
        self.wall_start_s = time.perf_counter()
        self.wall_end_s = None
        self.sim_ms = None
        self.thread_id = thread_id
        self._tracer = tracer

    # -- recording ---------------------------------------------------------

    def set(self, **attrs):
        """Merge attributes into the span (allowed after close)."""
        self.attrs.update(attrs)
        return self

    def set_sim(self, ms):
        """Attribute ``ms`` simulated milliseconds to this span."""
        self.sim_ms = ms
        return self

    def event(self, name, **attrs):
        """Record a point-in-time event (a zero-duration mark) on the span."""
        self.events.append(SpanEvent(name, time.perf_counter(), attrs))

    # -- reading -----------------------------------------------------------

    @property
    def wall_ms(self):
        """Wall duration in ms (up to now while the span is open)."""
        end = self.wall_end_s
        if end is None:
            end = time.perf_counter()
        return (end - self.wall_start_s) * 1e3

    def walk(self):
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- context management ------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.wall_end_s = time.perf_counter()
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False


class SpanEvent:
    """A zero-duration mark inside a span (a retry, a fault draw, ...)."""

    __slots__ = ("name", "wall_s", "attrs")

    def __init__(self, name, wall_s, attrs):
        self.name = name
        self.wall_s = wall_s
        self.attrs = attrs


class Tracer:
    """Collects a forest of spans, thread-safely.

    Use as::

        tracer = Tracer()
        with tracer.span("dispatch", workers=4) as span:
            ...
            span.event("degrade", label="S1.4")

    Spans opened on the same thread nest under the thread's innermost open
    span; another thread adopts a span by passing it as ``parent=``.
    Spans with no parent become roots of :attr:`roots`.
    """

    enabled = True

    def __init__(self):
        self.roots = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name, parent=None, **attrs):
        """Open a span (a context manager).  ``parent`` overrides the
        thread-local current span — the cross-thread propagation hook."""
        span = Span(name, attrs, self, threading.get_ident())
        if parent is None:
            parent = self.current()
        with self._lock:
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        stack = self._stack()
        stack.append(span)
        return span

    def current(self):
        """The innermost open span on *this* thread (or None)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return None

    def event(self, name, **attrs):
        """Record an event on the current span (dropped when no span is
        open — events always belong to a stage)."""
        span = self.current()
        if span is not None:
            span.event(name, **attrs)

    def walk(self):
        """Every span of every root, depth-first."""
        for root in list(self.roots):
            yield from root.walk()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _pop(self, span):
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:   # unwound out of order (error paths)
            stack.remove(span)


class _NullSpan:
    """The shared do-nothing span: every method is a no-op, entering it
    yields itself.  One instance serves the whole process."""

    __slots__ = ()

    name = None
    attrs = {}
    children = ()
    events = ()
    sim_ms = None

    def set(self, **attrs):
        return self

    def set_sim(self, ms):
        return self

    def event(self, name, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


#: The process-wide no-op span returned by :data:`NULL_TRACER`.
NULL_SPAN = _NullSpan()


class _NullTracer:
    """The disabled tracer: the default at every instrumentation point.
    Allocates nothing and records nothing — the tracing-off hot path."""

    __slots__ = ()

    enabled = False
    roots = ()

    def span(self, name, parent=None, **attrs):
        return NULL_SPAN

    def event(self, name, **attrs):
        pass


#: The process-wide disabled tracer (tracing off).
NULL_TRACER = _NullTracer()
