"""The harness's own span recorder.

The measured program is not touched, so layers are timed from outside,
around calls into their public functions.  A span is (name, start, end,
parent, op id); spans of one op share the op id.  Everything stays in
memory until :meth:`Recorder.write` dumps it as Chrome-trace JSON
(``about:tracing`` / https://ui.perfetto.dev).

This recorder deliberately shares no code with :mod:`repro.obs`: a later
change to the program's tracer must not move the yardstick.
"""

import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "args", "children",
                 "thread")

    def __init__(self, name, start, parent, op, args, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.args = args
        self.children = []
        self.thread = thread

    @property
    def ms(self):
        return (self.end - self.start) * 1000.0

    @property
    def self_ms(self):
        """Own duration minus the part child spans cover."""
        return self.ms - sum(child.ms for child in self.children)


class Recorder:
    """Nested spans, one stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, op=None, **args):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, time.perf_counter(), parent, op, args,
                    threading.get_ident())
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)  # list.append is atomic
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name, start, end, thread, op=None, **args):
        """Record a root span that was timed elsewhere."""
        span = Span(name, start, None, op, args, thread)
        span.end = end
        self.spans.append(span)

    def add_children(self, parent, durations_ms):
        """Attach aggregated child spans to ``parent``.

        The streaming pipeline interleaves its layers a row at a time, so
        a layer has a busy total but no single interval.  Its total is
        drawn as one child span, laid end to end from the parent's start
        (``aggregated`` marks it as a sum, not an interval that happened).
        """
        cursor = parent.start
        for name, ms in durations_ms:
            span = Span(name, cursor, parent, parent.op,
                        {"aggregated": True}, parent.thread)
            span.end = cursor = cursor + ms / 1000.0
            parent.children.append(span)
            self.spans.append(span)

    def self_ms_by_name(self):
        """{span name: summed self time in ms}."""
        totals = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_ms
        return totals

    def chrome_trace(self):
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start for span in self.spans)
        tids = {}
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.thread, len(tids))
            args = dict(span.args)
            if span.op is not None:
                args["op"] = span.op
            if span.parent is not None:
                args["parent"] = span.parent.name
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
