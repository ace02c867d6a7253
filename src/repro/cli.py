"""Command-line interface: explore the reproduction without writing code.

::

    python -m repro explain --query q1 --strategy unified
    python -m repro materialize --query q1 --strategy greedy --indent 2
    python -m repro plan --query q2 --reduce
    python -m repro sweep --query q1 --reduce        # slow: 512 plans
    python -m repro trace q1 --out trace.json        # Chrome-trace profile
    python -m repro mutate --table Nation --op insert --rows 2
    python -m repro serve --port 7414                # multi-tenant service
    python -m repro serve --wal state/ --checkpoint-every 256   # durable
    python -m repro recover state/ --query q1        # inspect + prove a WAL
    python -m repro query --connect 127.0.0.1:7414 --query q1 --indent 2

All commands run against a freshly generated Configuration-A TPC-H
database (deterministic seed), so output is reproducible.  ``--metrics``
on the execution commands prints the observability counters as JSON;
``trace`` runs a materialization under a full tracing session and writes
the Chrome-trace file (load it in ``about:tracing`` or Perfetto).
"""

import argparse
import sys

import repro
from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.bench.report import format_series
from repro.core.greedy import GreedyPlanner
from repro.core.options import (
    STYLES,
    options_from_flat,
    positive_float,
    positive_int,
    probability,
)
from repro.core.silkroute import SilkRoute, view_definition
from repro.obs import ObsOptions, metrics_json
from repro.relational.backends import SqliteBackend, cross_validate
from repro.session import Session, apply_delta as _apply_delta  # noqa: F401
from repro.tpch.configs import CONFIG_A, build_configuration

_QUERIES = {"q1": QUERY_1, "q2": QUERY_2}


def _execution_options(args, default_budget_ms=None, obs=None):
    """The :class:`ExecutionOptions` described by the command line."""
    flat = vars(args)
    if flat.get("budget_ms") is None:
        flat = dict(flat, budget_ms=default_budget_ms)
    return options_from_flat(flat, obs=obs)


def _obs_session(args):
    """An :class:`~repro.obs.ObsOptions` session when the command asked
    for one (``--metrics``, or the ``trace`` command), else None."""
    if getattr(args, "command", None) == "trace" or getattr(args, "metrics", False):
        return ObsOptions()
    return None


def _run_mutate(args, database, connection, estimator, rxl, out):
    """The ``mutate`` command: warm the caches, apply a delta, and show
    that incremental re-materialization matches a cold run byte-for-byte
    (XML and simulated timings) while replaying untouched work."""
    import dataclasses
    import time

    obs = _obs_session(args)
    options = _execution_options(args, obs=obs)
    session = Session(connection, estimator=estimator)
    strategy = None if args.strategy == "greedy" else args.strategy

    start = time.perf_counter()
    warm = session.materialize(rxl, strategy, root_tag="view",
                               options=options)
    warm_s = time.perf_counter() - start
    print(f"-- warm materialization: {warm_s * 1000:.1f}ms wall", file=out)

    delta = session.mutate(args.table, op=args.op, rows=args.rows,
                           seed=args.seed)
    print(
        f"-- {args.op}: {delta.mutated} row(s) in {args.table} "
        f"(now generation {delta.stats['generation']})",
        file=out,
    )

    start = time.perf_counter()
    incremental = session.materialize(rxl, strategy, root_tag="view",
                                      options=options)
    incremental_s = time.perf_counter() - start

    # Cold oracle: a fresh connection (empty caches) over the *mutated*
    # database must agree byte-for-byte, with identical simulated timings.
    _, cold_connection, cold_estimator = build_configuration(
        CONFIG_A, database=database,
    )
    cold_options = dataclasses.replace(options, obs=None)
    cold_session = Session(cold_connection, estimator=cold_estimator,
                           cache=False)
    start = time.perf_counter()
    cold = cold_session.materialize(rxl, strategy, root_tag="view",
                                    options=cold_options)
    cold_s = time.perf_counter() - start

    identical = (
        incremental.xml == cold.xml
        and incremental.report.query_ms == cold.report.query_ms
        and incremental.report.transfer_ms == cold.report.transfer_ms
    )
    plan_stats = incremental.stats["plan_cache"]
    node_stats = connection.engine.node_cache.stats().as_dict()
    splice = {
        name: incremental.stats["splice_cache"][name]
        - warm.stats["splice_cache"][name]
        for name in ("hits", "misses")
    }
    print(
        f"-- plan cache: {plan_stats['hits']} hit(s), "
        f"{plan_stats['invalidations']} invalidation(s)",
        file=out,
    )
    print(
        f"-- node cache: {node_stats['hits']} hit(s), "
        f"{node_stats['invalidations']} invalidation(s)",
        file=out,
    )
    print(
        f"-- splice: {splice['hits']} top-level element(s) reused, "
        f"{splice['misses']} re-tagged",
        file=out,
    )
    speedup = (cold_s / incremental_s) if incremental_s > 0 else float("inf")
    print(
        f"-- incremental {incremental_s * 1000:.1f}ms vs cold "
        f"{cold_s * 1000:.1f}ms wall ({speedup:.1f}x); simulated "
        f"{incremental.report.query_ms:.0f}ms query + "
        f"{incremental.report.transfer_ms:.0f}ms transfer",
        file=out,
    )
    print(
        "-- verified: incremental output byte-identical to the cold run"
        if identical else
        "-- MISMATCH: incremental output differs from the cold run",
        file=out,
    )
    if args.metrics:
        print(metrics_json(obs.metrics), file=out)
    return 0 if identical else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SilkRoute reproduction (SIGMOD 2001) command line",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--query", choices=sorted(_QUERIES), default="q1",
                       help="workload query (default: q1)")
        p.add_argument("--style", choices=sorted(STYLES),
                       default="outer-join", help="SQL generation style")
        p.add_argument("--reduce", action="store_true",
                       help="apply view-tree reduction")

    def add_execution(p):
        p.add_argument("--workers", type=positive_int, default=None,
                       help="simulated dispatch width: subqueries the "
                            "source runs at once (sets the makespans)")
        p.add_argument("--budget-ms", type=positive_float, default=None,
                       help="per-subquery simulated timeout")
        p.add_argument("--retries", type=positive_int, default=None,
                       help="max attempts per stream under fault injection")
        p.add_argument("--fault-seed", type=int, default=None,
                       help="deterministic fault-injection seed")
        p.add_argument("--fault-rate", type=probability, default=None,
                       help="per-attempt transient failure probability "
                            "(between 0 and 1)")
        p.add_argument("--replicas", type=positive_int, default=None,
                       help="serve streams from N simulated replicas with "
                            "health-checked routing and failover")
        p.add_argument("--hedge-ms", type=positive_float, default=None,
                       help="hedge a backup request on a second replica when "
                            "a stream exceeds this simulated latency")
        p.add_argument("--metrics", action="store_true",
                       help="print observability counters as JSON afterwards")

    def add_backend_check(p):
        p.add_argument("--backend", choices=["sqlite"], default=None,
                       help="after the document is produced, run the plan's "
                            "SQL on a real backend and cross-validate its "
                            "rows against the simulated oracle (measured "
                            "wall-clock is reported separately)")
        p.add_argument("--db-path", default=None, metavar="FILE",
                       help="SQLite database file for --backend sqlite "
                            "(default: a private in-memory instance)")

    # explain renders SQL without dispatching it: no execution flag
    # applies to it.
    explain = sub.add_parser("explain", help="print the SQL a plan sends")
    add_common(explain)
    explain.add_argument("--strategy", default="greedy",
                         choices=["unified", "fully-partitioned", "greedy"])
    explain.add_argument("--metrics", action="store_true",
                         help="print observability counters as JSON "
                              "afterwards")

    materialize = sub.add_parser("materialize",
                                 help="materialize the XML view")
    add_common(materialize)
    add_execution(materialize)
    add_backend_check(materialize)
    materialize.add_argument("--strategy", default="greedy",
                             choices=["unified", "fully-partitioned", "greedy"])
    materialize.add_argument("--indent", type=int, default=None)
    materialize.add_argument("--out", default=None,
                             help="write the document to a file")

    plan = sub.add_parser("plan", help="run the greedy plan generator")
    add_common(plan)

    sweep = sub.add_parser("sweep",
                           help="time all 512 plans (Fig. 13/14 series)")
    add_common(sweep)
    add_execution(sweep)
    sweep.add_argument("--metric", choices=["query_ms", "total_ms"],
                       default="query_ms")

    query = sub.add_parser(
        "query",
        help="run a query against a running service (--connect) or locally",
    )
    add_common(query)
    add_execution(query)
    add_backend_check(query)
    query.add_argument("name", nargs="?", choices=sorted(_QUERIES),
                       default=None,
                       help="workload query (same as --query)")
    query.add_argument("--strategy", default="greedy",
                       choices=["unified", "fully-partitioned", "greedy"])
    query.add_argument("--indent", type=int, default=None)
    query.add_argument("--out", default=None,
                       help="write the document to a file")
    query.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="address of a running `repro serve` (omit to "
                            "run locally through a Session)")
    query.add_argument("--tenant", default="default",
                       help="tenant name sent with the request")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant query service (JSON-line protocol)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7414,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--max-inflight", type=positive_int, default=None,
                       help="per-tenant in-flight request quota "
                            "(default: unthrottled)")
    serve.add_argument("--document-cache-bytes", type=positive_int,
                       default=None,
                       help="LRU byte budget for finished documents")
    serve.add_argument("--wal", default=None, metavar="PATH",
                       help="directory for the durable write-ahead log; "
                            "mutations are logged + fsynced before they "
                            "apply, and a restart on the same path recovers "
                            "the pre-crash state (tables, generations, and "
                            "the request-dedup map) before serving")
    serve.add_argument("--checkpoint-every", type=positive_int, default=None,
                       help="snapshot the database and truncate the WAL "
                            "after every N commit records (default: only "
                            "on startup and graceful shutdown)")
    serve.add_argument("--drain-timeout", type=positive_float, default=30.0,
                       help="seconds SIGTERM waits for in-flight requests "
                            "before exiting (default: 30)")

    recover_cmd = sub.add_parser(
        "recover",
        help="recover a database from a WAL directory and report what "
             "was replayed",
    )
    recover_cmd.add_argument("wal", metavar="PATH",
                             help="the WAL directory a --wal serve wrote")
    recover_cmd.add_argument("--query", choices=sorted(_QUERIES),
                             default=None,
                             help="also materialize this query against the "
                                  "recovered database (proof of life)")

    mutate = sub.add_parser(
        "mutate",
        help="apply a delta and re-materialize the view incrementally",
    )
    add_common(mutate)
    add_execution(mutate)
    mutate.add_argument("--strategy", default="greedy",
                        choices=["unified", "fully-partitioned", "greedy"])
    mutate.add_argument("--table", default="Nation",
                        help="base table to mutate (default: Nation)")
    mutate.add_argument("--op", choices=["insert", "update", "delete"],
                        default="insert",
                        help="mutation kind (default: insert)")
    mutate.add_argument("--rows", type=positive_int, default=1,
                        help="rows to insert/update/delete (default: 1)")
    mutate.add_argument("--seed", type=int, default=0,
                        help="deterministic delta-synthesis seed")

    trace = sub.add_parser(
        "trace",
        help="materialize under a tracing session and export a Chrome trace",
    )
    trace.add_argument("query", nargs="?", choices=sorted(_QUERIES),
                       default="q1", help="workload query (default: q1)")
    trace.add_argument("--style", choices=sorted(STYLES),
                       default="outer-join", help="SQL generation style")
    trace.add_argument("--reduce", action="store_true",
                       help="apply view-tree reduction")
    trace.add_argument("--strategy", default="greedy",
                       choices=["unified", "fully-partitioned", "greedy"])
    trace.add_argument("--out", default="trace.json",
                       help="Chrome-trace JSON output file "
                            "(default: trace.json)")
    add_execution(trace)

    sub.add_parser("experiments",
                   help="list the paper's tables/figures and their benches")

    tree = sub.add_parser("tree", help="draw the labeled view tree (Fig. 6)")
    tree.add_argument("--query", choices=sorted(_QUERIES), default="q1")
    tree.add_argument("--no-args", action="store_true",
                      help="hide Skolem-term arguments")

    xmlql = sub.add_parser(
        "xmlql", help="run an XML-QL query against the virtual view"
    )
    xmlql.add_argument("--query", choices=sorted(_QUERIES), default="q1")
    xmlql.add_argument("expression",
                       help="XML-QL text, e.g. 'where <supplier><name>$s"
                            "</name></supplier> construct <r>$s</r>'")
    xmlql.add_argument("--indent", type=int, default=2)

    return parser


def _run_serve(args, out):
    """The ``serve`` command: the multi-tenant service over q1/q2.

    With ``--wal`` the server is durable (recovering the directory's
    state before it listens) and SIGTERM triggers a graceful drain:
    in-flight requests finish, new ones are shed with the typed
    ``draining`` overload reason, the WAL is checkpointed, and the
    process exits cleanly.
    """
    import signal
    import threading

    from repro.serve import AdmissionPolicy, Server

    policy = None
    if args.max_inflight is not None:
        policy = AdmissionPolicy(max_inflight_requests=args.max_inflight)
    server = Server(
        queries=dict(_QUERIES), default_policy=policy,
        document_cache_bytes=args.document_cache_bytes,
        wal=args.wal, checkpoint_every=args.checkpoint_every,
    )
    if server.session.recovery is not None:
        report = server.session.recovery
        print(
            f"-- recovered {report.path}: {report.snapshot_rows} snapshot "
            f"row(s) + {report.records_scanned} log record(s) "
            f"({report.ops_applied} op(s) applied, "
            f"{report.torn_bytes} torn byte(s) dropped) "
            f"in {report.wall_ms:.1f}ms",
            file=out,
        )

    drainers = []

    def on_sigterm(signum, frame):
        # socketserver.shutdown() deadlocks when called from the thread
        # running serve_forever (which this handler interrupts), so the
        # drain runs on a helper thread — joined below, so the process
        # cannot exit before the final checkpoint lands on disk.
        thread = threading.Thread(
            target=server.terminate, kwargs={"timeout": args.drain_timeout},
            name="repro-drain", daemon=True,
        )
        drainers.append(thread)
        thread.start()

    try:
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:
        pass  # not on the main thread (tests drive _run_serve directly)

    def ready(address):
        print(f"serving {sorted(_QUERIES)} on "
              f"{address[0]}:{address[1]}", file=out)
        if hasattr(out, "flush"):
            out.flush()

    try:
        server.serve_forever(host=args.host, port=args.port, ready=ready)
    except KeyboardInterrupt:
        print("-- interrupted", file=out)
        server.terminate(timeout=args.drain_timeout)
    for thread in drainers:
        thread.join(args.drain_timeout + 30)
    return 0


def _run_recover(args, out):
    """The ``recover`` command: rebuild a database from a WAL directory,
    print the recovery report, and optionally prove it serves."""
    from repro.relational.wal import recover
    from repro.tpch.schema import tpch_schema

    database, report = recover(args.wal, schema=tpch_schema())
    print(f"recovered {report.path} in {report.wall_ms:.1f}ms:", file=out)
    print(
        f"  snapshot: {report.snapshot_rows} row(s); log: "
        f"{report.records_scanned} record(s) scanned, "
        f"{report.ops_applied} op(s) applied, "
        f"{report.ops_skipped} already in snapshot, "
        f"{report.torn_bytes} torn byte(s) dropped",
        file=out,
    )
    for name in sorted(report.tables):
        rows, generation = report.tables[name]
        print(f"  {name}: {rows} row(s), generation {generation}", file=out)
    if report.dedup:
        print(f"  dedup map: {len(report.dedup)} committed request id(s)",
              file=out)
    if args.query is not None:
        session = Session(database)
        result = session.materialize(_QUERIES[args.query], root_tag="view")
        print(
            f"-- {args.query}: {len(result.xml)} character(s), simulated "
            f"{result.report.query_ms:.0f}ms query + "
            f"{result.report.transfer_ms:.0f}ms transfer",
            file=out,
        )
    return 0


def _run_remote_query(args, out):
    """``query --connect``: one request against a running service."""
    from repro.serve import ServeClient, ServeError

    host, _, port = args.connect.rpartition(":")
    options = _execution_options(args)
    strategy = None if args.strategy == "greedy" else args.strategy
    try:
        with ServeClient(host or "127.0.0.1", int(port)) as client:
            reply = client.query(
                args.query, tenant=args.tenant, partition=strategy,
                indent=args.indent, options=options,
            )
    except ServeError as exc:
        print(f"-- error: {exc}", file=out)
        return 1
    if args.out:
        with open(args.out, "w") as sink:
            sink.write(reply["xml"])
        print(f"wrote {len(reply['xml'])} characters to {args.out}", file=out)
    else:
        print(reply["xml"], file=out)
    report = reply["report"]
    coalesced = " (coalesced)" if reply.get("coalesced") else ""
    print(
        f"-- {report['n_streams']} stream(s), simulated "
        f"{report['query_ms']:.0f}ms query + "
        f"{report['transfer_ms']:.0f}ms transfer{coalesced}",
        file=out,
    )
    return 0


def main(argv=None, out=sys.stdout):
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "db_path", None) is not None
            and getattr(args, "backend", None) != "sqlite"):
        parser.error("--db-path requires --backend sqlite")
    if getattr(args, "backend", None) and getattr(args, "connect", None):
        parser.error("--backend checks a local run; drop --connect")
    if getattr(args, "name", None):
        args.query = args.name
    if args.command == "experiments":
        from repro.bench.experiments import format_registry

        print(format_registry(), file=out)
        return 0

    if args.command == "serve":
        return _run_serve(args, out)

    if args.command == "recover":
        return _run_recover(args, out)

    if args.command == "query" and args.connect:
        return _run_remote_query(args, out)

    database, connection, estimator = build_configuration(CONFIG_A)
    rxl = _QUERIES[getattr(args, "query", "q1")]

    if args.command == "tree":
        tree = load_view(rxl, database.schema)
        print(tree.render(show_args=not args.no_args), file=out)
        return 0

    if args.command == "xmlql":
        silk = SilkRoute(connection, estimator=estimator)
        view = silk.define_view(rxl)
        result = view.query(args.expression, indent=args.indent)
        print(result.xml, file=out)
        print(f"-- {result.bindings} binding(s), one SQL query, simulated "
              f"{result.server_ms:.0f}ms", file=out)
        return 0

    style = STYLES[args.style]

    if args.command == "mutate":
        return _run_mutate(args, database, connection, estimator, rxl, out)

    if args.command == "trace":
        obs = _obs_session(args)
        options = _execution_options(args, obs=obs)
        session = Session(connection, estimator=estimator)
        strategy = None if args.strategy == "greedy" else args.strategy
        result = session.materialize(rxl, strategy, root_tag="view",
                                     options=options)
        with open(args.out, "w") as sink:
            sink.write(obs.chrome_trace_json())
        print(obs.profile(), file=out)
        print(
            f"-- {result.report.n_streams} stream(s), simulated "
            f"{result.report.query_ms:.0f}ms query + "
            f"{result.report.transfer_ms:.0f}ms transfer",
            file=out,
        )
        print(f"wrote Chrome trace ({len(obs.chrome_trace())} events) "
              f"to {args.out}", file=out)
        if args.metrics:
            print(metrics_json(obs.metrics), file=out)
        return 0

    if args.command in ("explain", "materialize", "query"):
        obs = _obs_session(args)
        options = _execution_options(args, obs=obs)
        session = Session(connection, estimator=estimator)
        strategy = None if args.strategy == "greedy" else args.strategy
        if args.command == "explain":
            sqls = session.explain(rxl, strategy, options=options).sql
            for i, sql in enumerate(sqls, 1):
                print(f"-- query {i} " + "-" * 50, file=out)
                print(sql, file=out)
            if args.metrics:
                print(metrics_json(obs.metrics), file=out)
            return 0
        result = session.materialize(
            rxl, strategy, indent=args.indent, root_tag="view",
            options=options,
        )
        if args.out:
            with open(args.out, "w") as sink:
                sink.write(result.xml)
            print(f"wrote {len(result.xml)} characters to {args.out}", file=out)
        else:
            print(result.xml, file=out)
        print(
            f"-- {result.report.n_streams} stream(s), simulated "
            f"{result.report.query_ms:.0f}ms query + "
            f"{result.report.transfer_ms:.0f}ms transfer",
            file=out,
        )
        if args.backend is not None:
            backend = SqliteBackend(database, db_path=args.db_path)
            try:
                checked = cross_validate(
                    connection.engine,
                    session.view(rxl).specs(
                        strategy, style=options.style, reduce=options.reduce,
                    ),
                    backend,
                )
            finally:
                backend.close()
            wall_ms = sum(sum(walls) for _, _, walls in checked)
            print(
                f"-- backend: {backend.name}, measured {wall_ms:.1f}ms wall, "
                "rows cross-validated against the simulated oracle",
                file=out,
            )
        resilience = result.report.resilience
        if resilience is not None:
            print(
                f"-- resilience: {resilience.attempts} attempt(s), "
                f"{resilience.retries} retried, {resilience.faults} fault(s) "
                f"injected, {resilience.backoff_ms:.0f}ms backoff, "
                f"{len(resilience.degraded_streams)} stream(s) degraded",
                file=out,
            )
            if options.resilience.replicas is not None:
                print(
                    f"-- replicas: {resilience.failovers} failover(s), "
                    f"{resilience.hedges} hedge(s), {resilience.hedge_wins} "
                    f"hedge win(s), {resilience.hedge_wait_ms:.0f}ms hedge "
                    "wait",
                    file=out,
                )
        if args.metrics:
            print(metrics_json(obs.metrics), file=out)
        return 0

    if args.command == "plan":
        definition = view_definition(rxl, database.schema)
        tree = definition.tree
        greedy = GreedyPlanner(tree, database.schema, estimator, generator=(
            definition.generator(style, args.reduce))).plan()
        described = greedy.describe()
        print(f"mandatory edges: {described['mandatory']}", file=out)
        print(f"optional edges:  {described['optional']}", file=out)
        print(f"plan family:     {described['family_size']} plan(s)", file=out)
        print(f"oracle requests: {greedy.oracle_requests} "
              f"(worst case {len(tree.edges) ** 2})", file=out)
        return 0

    if args.command == "sweep":
        obs = _obs_session(args)
        options = _execution_options(
            args, default_budget_ms=CONFIG_A.subquery_budget_ms, obs=obs,
        )
        session = Session(connection, estimator=estimator)
        sweep = session.sweep(rxl, options=options).sweep
        print(
            format_series(
                sweep, args.metric,
                title=f"{args.query} Config A {args.metric} "
                      f"(reduce={args.reduce})",
            ),
            file=out,
        )
        if args.metrics:
            print(metrics_json(obs.metrics), file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
