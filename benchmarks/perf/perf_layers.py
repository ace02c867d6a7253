"""The traced run: per-layer metrics, timed from outside the program.

End-to-end numbers always come from the untraced run.  This module
re-runs a slice of each workload with the harness's own recorder
(:mod:`perf_spans`) around calls into each layer's public functions.

For exports it *replays the pipeline* —
``parse_rxl`` → ``build_view_tree`` + ``label_view_tree`` →
``GreedyPlanner.plan`` → ``SqlGenerator.streams_for_partition`` (+ ``.sql``)
→ ``execute_specs`` → ``decode_stream`` → ``merge_streams`` →
``XmlTagger.run`` into a recording writer → replay into ``XmlWriter`` —
and requires the result to be byte-identical to ``Session.materialize``
on the same op.  For ``export_stream`` the same boundaries are wrapped in
timing iterators and a layer's self time is its own minus its child's.
What ``Session.materialize`` spends beyond the replayed layers is
``session.glue_ms``.

Layer names are module names.  Every ``*.busy_ms`` and every count is a
mean **per op** of the traced slice, so runs of different length compare.
"""

import gc
import time
from collections import Counter

import perf_common as common
import perf_workloads as workloads
from perf_common import QUERIES, SWEEP_BUDGET_MS, fresh_connection, fresh_session
from perf_spans import Recorder

from repro.core.greedy import GreedyPlanner
from repro.core.labeling import label_view_tree
from repro.core.options import ExecutionOptions
from repro.core.partition import (
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import SqlGenerator
from repro.core.viewtree import build_view_tree
from repro.obs import ObsOptions
from repro.relational.dispatch import execute_specs
from repro.relational.estimator import CostEstimator
from repro.rxl.parser import parse_rxl
from repro.serve import ServeClient
from repro.serve.protocol import (
    decode,
    encode,
    options_from_wire,
    report_to_wire,
)
from repro.xmlgen import (
    ComparatorLayout,
    XmlTagger,
    XmlWriter,
    decode_stream,
    merge_streams,
)

#: Span names of the pipeline layers, in pipeline order; the metric of a
#: layer is ``<name>.busy_ms``.
LAYERS = (
    "rxl.parse", "core.viewtree", "core.greedy", "core.sqlgen",
    "relational.execute", "xmlgen.decode", "xmlgen.merge", "xmlgen.tag",
    "xmlgen.serialize",
)
NAMED_PARTITIONS = {
    "unified": unified_partition, "fully-partitioned": fully_partitioned,
}
SLOPE_SCALES = (("sf1", 1.0), ("sf3", 3.0), ("sf10", 10.0))
#: layer -> (unit of its per-unit cost, the count it is divided by)
UNIT_COSTS = {
    "relational.execute": ("us_per_row", "relational.execute.rows"),
    "xmlgen.decode": ("us_per_instance", "xmlgen.decode.instances"),
    "xmlgen.merge": ("us_per_instance", "xmlgen.merge.instances"),
    "xmlgen.tag": ("us_per_instance", "xmlgen.merge.instances"),
}
MICRO_REPEATS = 30


class RecordingWriter:
    """Stands in for ``XmlWriter`` under the tagger and keeps its events,
    so tagging and serializing can be timed one after the other."""

    def __init__(self):
        self.events = []

    def start_element(self, tag):
        self.events.append((0, tag))

    def text(self, value):
        self.events.append((1, value))

    def end_element(self, tag):
        self.events.append((2, tag))

    def replay(self, writer):
        handlers = (writer.start_element, writer.text, writer.end_element)
        for kind, value in self.events:
            handlers[kind](value)


class TimedIterator:
    """Times the inside of ``next()``: its ``seconds`` include everything
    the wrapped iterator pulls from below."""

    __slots__ = ("_next", "seconds", "count")

    def __init__(self, iterable):
        self._next = iter(iterable).__next__
        self.seconds = 0.0
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            item = self._next()
        finally:
            self.seconds += time.perf_counter() - start
        self.count += 1
        return item


class TimedWriter:
    """Times the ``XmlWriter`` calls the tagger makes."""

    def __init__(self, writer):
        self.seconds = 0.0
        for name in ("start_element", "text", "end_element"):
            setattr(self, name, self._timed(getattr(writer, name)))

    def _timed(self, method):
        def call(value):
            start = time.perf_counter()
            try:
                return method(value)
            finally:
                self.seconds += time.perf_counter() - start
        return call


# -- the replayed export pipeline ---------------------------------------------


def replay_front(rec, database, connection, qname, partition, counts):
    """RXL text to stream specs through the public planning functions;
    returns ``(tree, specs)``."""
    schema = database.schema
    with rec.span("rxl.parse"):
        query = parse_rxl(QUERIES[qname])
    with rec.span("core.viewtree"):
        tree = build_view_tree(query, schema, validate=True)
        label_view_tree(tree, schema)
    with rec.span("core.greedy"):
        if partition is None:
            estimator = CostEstimator(database, connection.engine.cost_model)
            plan = GreedyPlanner(tree, schema, estimator, reduce=True).plan()
            counts["core.greedy.estimate_requests"] += plan.oracle_requests
            partition = plan.recommended()
        else:
            partition = NAMED_PARTITIONS[partition](tree)
    with rec.span("core.sqlgen"):
        specs = SqlGenerator(tree, schema, reduce=True) \
            .streams_for_partition(partition)
        counts["core.sqlgen.sql_bytes"] += sum(len(s.sql) for s in specs)
    counts["core.sqlgen.streams"] += len(specs)
    return tree, specs


def count_streams(counts, streams, rows):
    counts["relational.execute.rows"] += rows
    counts["relational.execute.sim_query_ms"] += sum(
        s.server_ms for s in streams)
    counts["relational.execute.sim_transfer_ms"] += sum(
        s.transfer_ms for s in streams)


def replay_export(rec, database, config, qname, partition, op, counts):
    """One ``export_cold`` op through the public layer functions, a span
    around each; returns the document."""
    connection = fresh_connection(database, config, cache=True)
    with rec.span("op", op=op, query=qname, partition=str(partition)):
        tree, specs = replay_front(
            rec, database, connection, qname, partition, counts)
        with rec.span("relational.execute"):
            result = execute_specs(connection, specs)
        count_streams(counts, result.streams,
                      sum(len(s) for s in result.streams))
        with rec.span("xmlgen.decode"):
            layout = ComparatorLayout(tree)
            decoded = [
                list(decode_stream(spec, stream, layout))
                for spec, stream in zip(specs, result.streams)
            ]
        counts["xmlgen.decode.instances"] += sum(len(d) for d in decoded)
        with rec.span("xmlgen.merge"):
            merged = list(merge_streams(decoded))
        counts["xmlgen.merge.instances"] += len(merged)
        with rec.span("xmlgen.tag"):
            events = RecordingWriter()
            tagger = XmlTagger(tree, events, root_tag="view")
            tagger.run(merged)
        counts["xmlgen.tag.elements"] += tagger.elements_written
        with rec.span("xmlgen.serialize"):
            writer = XmlWriter()
            events.replay(writer)
            xml = writer.getvalue()
        counts["xmlgen.serialize.bytes"] += len(xml.encode("utf-8"))
    return xml


def replay_stream(rec, database, config, qname, partition, op, counts):
    """One ``export_stream`` op: lazy cursors, lazy decode, sink writer,
    with a timing iterator at each boundary.  Returns the hashing sink."""
    connection = fresh_connection(database, config, cache=True)
    with rec.span("op", op=op, query=qname, partition=str(partition)):
        tree, specs = replay_front(
            rec, database, connection, qname, partition, counts)
        with rec.span("pipeline") as pipeline:
            start = time.perf_counter()
            cursors = [
                connection.execute_iter(
                    spec.plan, compact_rows=spec.compact, sql=spec.sql,
                    label=spec.label,
                )
                for spec in specs
            ]
            rows = [TimedIterator(cursor) for cursor in cursors]
            execute_s = time.perf_counter() - start
            start = time.perf_counter()
            layout = ComparatorLayout(tree)
            decode_s = time.perf_counter() - start
            decoders = [
                TimedIterator(decode_stream(spec, source, layout))
                for spec, source in zip(specs, rows)
            ]
            merged = TimedIterator(merge_streams(decoders))
            sink = workloads.DigestSink()
            writer = TimedWriter(XmlWriter(sink=sink))
            tagger = XmlTagger(tree, writer, root_tag="view")
            start = time.perf_counter()
            tagger.run(merged)
            run_s = time.perf_counter() - start
        rows_s = sum(source.seconds for source in rows)
        decoders_s = sum(decoder.seconds for decoder in decoders)
        rec.add_children(pipeline, [
            ("relational.execute", (execute_s + rows_s) * 1000.0),
            ("xmlgen.decode", (decode_s + decoders_s - rows_s) * 1000.0),
            ("xmlgen.merge", (merged.seconds - decoders_s) * 1000.0),
            ("xmlgen.tag",
             (run_s - merged.seconds - writer.seconds) * 1000.0),
            ("xmlgen.serialize", writer.seconds * 1000.0),
        ])
        count_streams(counts, cursors, sum(source.count for source in rows))
        counts["xmlgen.decode.instances"] += sum(d.count for d in decoders)
        counts["xmlgen.merge.instances"] += merged.count
        counts["xmlgen.tag.elements"] += tagger.elements_written
        counts["xmlgen.serialize.bytes"] += sink.bytes
    return sink


# -- turning spans and counts into metrics ------------------------------------


class Slice:
    """A traced slice of a workload: the recorder, the counts, and per op
    the untraced wall next to the traced wall."""

    def __init__(self):
        self.rec = Recorder()
        self.counts = Counter()
        self.untraced_ms = []
        self.traced_ms = []
        self.failed = 0
        self.cpu_s = 0.0    # process time of the untraced ops

    @property
    def ops(self):
        return len(self.untraced_ms)

    def metrics(self):
        layer_ms = layer_self_ms(self.rec)
        values = layer_values(layer_ms, self.counts, self.ops)
        attributed = sum(layer_ms.values())
        untraced = sum(self.untraced_ms)
        values["session.glue_ms"] = (untraced - attributed) / self.ops
        values["session.attributed_frac"] = common.ratio(attributed, untraced)
        values["harness.trace_overhead_frac"] = common.ratio(
            sum(self.traced_ms) - untraced, untraced)
        values["host.cpu_s_per_op"] = self.cpu_s / self.ops
        return values


def layer_self_ms(rec):
    """{layer: summed self time in ms} of the recorder's layer spans."""
    totals = rec.self_ms_by_name()
    return {layer: totals.get(layer, 0.0) for layer in LAYERS}


def layer_values(layer_ms, counts, ops):
    """Busy time and counts per op, and cost per unit of work."""
    values = {f"{layer}.busy_ms": ms / ops for layer, ms in layer_ms.items()}
    values.update({name: total / ops for name, total in counts.items()})
    values.update(per_unit(layer_ms, counts))
    return values


def per_unit(layer_ms, counts, suffix=""):
    """Microseconds per row or per instance of each data-bound layer."""
    return {
        f"{layer}.{unit}{suffix}":
            common.ratio(layer_ms[layer] * 1000.0, counts[count])
        for layer, (unit, count) in UNIT_COSTS.items()
    }


def plan_cache_values(plan_stats, node_stats):
    """The relational caches, as the program reports them (``as_dict()``
    of their stats): hit rates, and plan-result bytes against budget."""
    return {
        "relational.cache.plan_hit_rate": plan_stats["hit_rate"],
        "relational.cache.plan_evictions": plan_stats["evictions"],
        "relational.cache.plan_bytes": plan_stats["current_bytes"],
        "relational.cache.plan_budget_frac": common.ratio(
            plan_stats["current_bytes"], plan_stats["max_bytes"]),
        "relational.cache.node_hit_rate": node_stats["hit_rate"],
    }


def xml_cache_values(views):
    """Hit rates of the per-view document and decoded-instance caches."""
    values = {}
    for name, attribute in (("doc_cache", "document_cache"),
                            ("instance_cache", "instance_cache")):
        stats = [getattr(view, attribute).stats() for view in views]
        hits = sum(s["hits"] for s in stats)
        values[f"xmlgen.{name}.hit_rate"] = common.ratio(
            hits, hits + sum(s["misses"] for s in stats))
    return values


# -- export_cold / export_stream ----------------------------------------------


def export_slice(database, config, seconds, streaming):
    """Rounds of the export variants, each op once untraced and once
    replayed.  Returns the slice, ``(qname, sha256, chars)`` of every
    document produced, and the last op's session (for its counters)."""
    replay = replay_stream if streaming else replay_export
    piece = Slice()
    outputs = []
    loop_start = time.perf_counter()
    while not piece.ops or time.perf_counter() - loop_start < seconds:
        for qname, partition in workloads.EXPORT_VARIANTS:
            gc.collect()
            cpu_start = time.process_time()
            start = time.perf_counter()
            session = fresh_session(database, config)
            result, sink = workloads.export_op(
                session, qname, partition, streaming)
            untraced_ms = (time.perf_counter() - start) * 1000.0
            piece.cpu_s += time.process_time() - cpu_start
            gc.collect()
            start = time.perf_counter()
            replayed = replay(piece.rec, database, config, qname, partition,
                              piece.ops, piece.counts)
            piece.traced_ms.append((time.perf_counter() - start) * 1000.0)
            piece.untraced_ms.append(untraced_ms)
            if streaming:
                # The timed op discarded its document; the replay hashed
                # the same pipeline's output.
                outputs.append((qname, replayed.hexdigest(), replayed.chars))
                piece.failed += replayed.chars != sink.chars
            else:
                outputs.append(
                    (qname, workloads.digest(result.xml), len(result.xml)))
                piece.failed += replayed != result.xml
    return piece, outputs, session


def traced_export(config, seconds, streaming, smoke):
    database = workloads.export_setup(config, streaming)
    piece, outputs, session = export_slice(
        database, config, seconds, streaming)
    values = piece.metrics()
    # Every op ran on empty caches by construction; the last op's own
    # counters say so (hit rates of 0).
    values.update(plan_cache_values(
        session.silkroute.cache.stats().as_dict(),
        session.connection.engine.node_cache.stats().as_dict(),
    ))
    values.update(xml_cache_values(
        [session.view(QUERIES[workloads.EXPORT_VARIANTS[-1][0]])]))
    if not streaming:
        values.update(obs_slice(database, config))
        values.update(scale_slopes(config.seed, smoke))
    references = workloads.reference_documents(database, config)
    for qname, sha, chars in outputs:
        xml = references[qname]
        piece.failed += (sha, chars) != (workloads.digest(xml), len(xml))
    return piece, values


def obs_slice(database, config):
    """``export_cold``'s variants with the program's own tracing on and
    off, alternating which goes first: what tracing costs, and how much
    of the root ``materialize`` span its child spans cover."""
    overheads = []
    coverage = []
    for index, (qname, partition) in enumerate(workloads.EXPORT_VARIANTS):
        wall = {}
        for traced in ((False, True), (True, False))[index % 2]:
            gc.collect()
            session = fresh_session(database, config)
            obs = ObsOptions() if traced else None
            start = time.perf_counter()
            session.materialize(
                QUERIES[qname], partition=partition,
                options=ExecutionOptions(obs=obs) if traced else None,
            )
            wall[traced] = time.perf_counter() - start
            if traced:
                root = obs.tracer.roots[0]
                coverage.append(common.ratio(
                    sum(child.wall_ms for child in root.children),
                    root.wall_ms))
        overheads.append((wall[True] - wall[False]) / wall[False])
    return {
        "obs.overhead_frac": common.median(overheads),
        "obs.span_coverage": common.mean(coverage),
    }


def scale_slopes(seed, smoke):
    """Per-row and per-instance cost of each layer at scales 1, 3 and 10:
    one replayed op per plan shape (1 stream, 10 streams).  A cost that
    grows with scale flags a super-linear layer.  (A smoke run skips the
    largest scale, which then reads 0.)"""
    values = {}
    for label, scale in SLOPE_SCALES:
        if smoke and scale > common.SCALE:
            continue
        config = common.bench_config(seed, scale)
        database = workloads.export_setup(config, streaming=False)
        rec = Recorder()
        counts = Counter()
        for op, partition in enumerate(NAMED_PARTITIONS):
            gc.collect()
            replay_export(rec, database, config, "q1", partition, op, counts)
        values.update(
            per_unit(layer_self_ms(rec), counts, suffix=f".{label}"))
    return values


# -- plan_sweep ---------------------------------------------------------------


def replay_sweep(piece, database, config, qname, reduce):
    """A sweep through the public functions, a span around SQL generation
    and around execution of every plan.  Returns the plans' outcomes and
    the connection (for its cache counters)."""
    rec = piece.rec
    schema = database.schema
    connection = fresh_connection(database, config, cache=True)
    outcomes = []
    with rec.span("sweep", query=qname, reduce=reduce):
        with rec.span("rxl.parse"):
            query = parse_rxl(QUERIES[qname])
        with rec.span("core.viewtree"):
            tree = build_view_tree(query, schema, validate=True)
            label_view_tree(tree, schema)
        generator = SqlGenerator(tree, schema, reduce=reduce)
        for partition in enumerate_partitions(tree):
            with rec.span("op", op=len(piece.traced_ms) + len(outcomes)):
                with rec.span("core.sqlgen"):
                    specs = generator.streams_for_partition(partition)
                    sql_bytes = sum(len(spec.sql) for spec in specs)
                with rec.span("relational.execute"):
                    result = execute_specs(
                        connection, specs, budget_ms=SWEEP_BUDGET_MS)
            piece.counts["core.sqlgen.streams"] += len(specs)
            piece.counts["core.sqlgen.sql_bytes"] += sql_bytes
            if result.timeout is not None:
                piece.counts["relational.execute.timeouts"] += 1
                outcomes.append((None, None, True))
                continue
            count_streams(piece.counts, result.streams,
                          sum(len(s) for s in result.streams))
            # Summed left to right, as the sweep does: bit-identical.
            query_ms = transfer_ms = 0.0
            for stream in result.streams:
                query_ms += stream.server_ms
                transfer_ms += stream.transfer_ms
            outcomes.append((query_ms, transfer_ms, False))
    return outcomes, connection


def traced_sweep(config, seconds):
    database = workloads.sweep_setup(config)
    piece = Slice()
    sweeps = []
    cache_samples = []
    host = common.HostSpeed()   # the sweep marks it; per-layer times stay raw
    loop_start = time.perf_counter()
    while not sweeps or time.perf_counter() - loop_start < seconds:
        for qname, reduce in workloads.SWEEP_VARIANTS:
            gc.collect()
            cpu_start = time.process_time()
            result, walls = workloads.timed_sweep(
                database, config, qname, reduce, host)
            piece.cpu_s += time.process_time() - cpu_start
            plan_ms = [wall for _, wall in walls]
            timings = result.sweep.timings
            sweeps.append((qname, reduce, timings))
            gc.collect()
            start = time.perf_counter()
            outcomes, connection = replay_sweep(
                piece, database, config, qname, reduce)
            traced_ms = (time.perf_counter() - start) * 1000.0
            piece.untraced_ms.extend(plan_ms)
            piece.traced_ms.extend([traced_ms / len(plan_ms)] * len(plan_ms))
            piece.failed += sum(
                workloads.plan_outcome(timing) != outcome
                for timing, outcome in zip(timings, outcomes)
            )
            cache_samples.append((
                connection.cache.stats().as_dict(),
                connection.engine.node_cache.stats().as_dict(),
            ))

    values = piece.metrics()
    plan_stats, node_stats = (
        {key: common.mean(sample[which][key] for sample in cache_samples)
         for key in ("hit_rate", "evictions", "current_bytes", "max_bytes")}
        for which in (0, 1)
    )
    values.update(plan_cache_values(plan_stats, node_stats))
    piece.failed += workloads.check_sweeps(database, config, sweeps)
    return piece, values


# -- serve_mixed --------------------------------------------------------------


def median_ms(call, repeats=MICRO_REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1000.0)
    return common.median(samples)


def serve_micro(rec, state):
    """Warm-path costs of the serving layers, each a median of
    ``MICRO_REPEATS`` calls on the live server; then what a write costs
    in process."""
    server = state.server
    session = server.session
    for qname in QUERIES:
        server.query(qname)     # the last write left the views cold
    request = {"op": "query", "query": "q1", "tenant": "default",
               "root_tag": "view"}
    with rec.span("serve.micro"):
        materialize = median_ms(lambda: session.materialize(QUERIES["q1"]))
        query = median_ms(lambda: server.query("q1"))
        handle = median_ms(lambda: server.handle_request(request))
        with ServeClient(*state.address) as client:
            over_wire = median_ms(lambda: client.query("q1"))
        report = server.query("q1").report
        response = server.handle_request(request)

        def protocol():
            # What one request costs both ends in the wire format.
            decode(encode(request))
            options_from_wire(request.get("options"))
            report_to_wire(report)
            decode(encode(response))

        protocol_ms = median_ms(protocol)
        mutate_ms = median_ms(
            lambda: session.mutate("Supplier", op="update", rows=2,
                                   seed=time.perf_counter_ns()),
            repeats=10,
        )
    return {
        "serve.server.overhead_ms": query - materialize,
        "serve.protocol.busy_ms": protocol_ms,
        "serve.wire.busy_ms": over_wire - handle,
        "relational.mutate.busy_ms": mutate_ms,
    }


def wal_values(metrics):
    """The write-ahead log's own ``wal.*`` counters, per mutation."""
    appends = metrics.counter("wal.appends")
    checkpoints = metrics.counter("wal.checkpoints")
    return {
        "relational.wal.fsyncs_per_mutation": common.ratio(
            metrics.counter("wal.fsyncs"), appends),
        "relational.wal.bytes_per_mutation": common.ratio(
            metrics.counter("wal.bytes"), appends),
        "relational.wal.checkpoints": checkpoints,
        "relational.wal.checkpoint_ms": common.ratio(
            metrics.counter("wal.checkpoint_ms"), checkpoints),
    }


def traced_serve(config, seconds):
    state = workloads.serve_setup(config)
    piece = Slice()
    try:
        gc.collect()
        cpu_start = time.process_time()
        with piece.rec.span("serve.phase", clients=workloads.SERVE_CLIENTS):
            requests, _ = workloads.serve_phase(state, config.seed, seconds)
        piece.cpu_s = time.process_time() - cpu_start
        for r in requests:      # one track per client in the trace
            piece.rec.add(f"serve.{r.kind}", r.start,
                          r.start + r.wall_ms / 1000.0,
                          thread=f"client-{r.client}", op=r.request_id)
        server = state.server
        stats = server.stats()
        done = [r for r in requests if r.kind != "error"]
        piece.untraced_ms = [r.wall_ms for r in done]   # the slice's ops
        piece.failed = len(requests) - len(done) + workloads.check_serve(
            server, {r.request_id: r.reply for r in done}, config)
        reads = [r.wall_ms for r in done if r.kind == "read"]
        writes = [r.wall_ms for r in done if r.kind == "mutate"]

        session = server.session
        values = {
            "serve.read_ms_p50": common.percentile(reads, 0.5),
            "serve.read_ms_p90": common.percentile(reads, 0.9),
            "serve.mutate_ms_p50": common.percentile(writes, 0.5),
            "serve.coalesced_frac": common.ratio(
                stats["coalesced"], len(reads)),
            "serve.shed": stats["shed"],
            "serve.errors": stats["errors"],
            "host.cpu_s_per_op": piece.cpu_s / len(done),
        }
        values.update(plan_cache_values(
            stats["plan_cache"],
            session.connection.engine.node_cache.stats().as_dict(),
        ))
        values.update(xml_cache_values(
            [session.view(rxl) for rxl in QUERIES.values()]))
        values.update(serve_micro(piece.rec, state))
        values.update(wal_values(server.metrics))
        # What a cold read costs per layer: the micro-benchmark's writes
        # left both views cold, so replay one export of each.
        for op, qname in enumerate(QUERIES):
            replay_export(piece.rec, session.database, config, qname, None,
                          f"cold-{op}", piece.counts)
        values.update(layer_values(
            layer_self_ms(piece.rec), piece.counts, len(QUERIES)))
    finally:
        state.dispose()
    return piece, values


def run_traced(name, config, seconds, smoke=False):
    """The traced run of workload ``name``: ``(slice, per-layer values)``.
    The slice gets part of ``seconds``; the rest of a traced run is the
    fixed work of its checks and micro-benchmarks."""
    if name == "export_cold":
        return traced_export(config, seconds * 0.4, False, smoke)
    if name == "export_stream":
        return traced_export(config, seconds * 0.8, True, smoke)
    if name == "plan_sweep":
        return traced_sweep(config, seconds * 0.5)
    if name == "serve_mixed":
        return traced_serve(config, seconds * 0.5)
    raise ValueError(f"unknown workload {name!r}")
