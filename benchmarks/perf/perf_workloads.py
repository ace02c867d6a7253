"""The four workloads: set-up, closed timed loop, output check.

All loops are closed (a middle-ware caller waits for its document): one
client, except ``serve_mixed`` with two (= ``nproc``).  A loop runs whole
rounds until ``seconds`` have passed, so every run measures the same mix
of ops and ``sim_ms_per_op`` repeats exactly for a given seed.  ``gc``
stays enabled inside timed regions; ``gc.collect()`` runs between ops,
outside them.  Wall times are reported at reference host speed (see
:class:`perf_common.HostSpeed`); the raw ones are printed beside them.

No result is reported before its outputs are checked (the check runs
after the timed loop and after peak RSS is read, so the reference engine's
memory is not billed to the workload): a wrong answer can never post a
fast time.
"""

import dataclasses
import gc
import hashlib
import random
import shutil
import threading
import time

import perf_common as common
from perf_common import QUERIES, SWEEP_BUDGET_MS, HostSpeed, fresh_session

from repro.serve import ServeClient, ServeError, Server
from repro.xmlgen import CountingSink

#: One export round: every (query, plan) variant once.  ``None`` lets the
#: greedy planner choose; the two strings are the plan-space endpoints
#: (1 stream and 10 streams).
EXPORT_VARIANTS = tuple(
    (qname, partition)
    for qname in ("q1", "q2")
    for partition in (None, "unified", "fully-partitioned")
)
#: One sweep round: each a full 512-plan sweep on a fresh Session.
SWEEP_VARIANTS = tuple(
    (qname, reduce) for qname in ("q1", "q2") for reduce in (False, True)
)
PLANS_PER_SWEEP = 512     # 2^9: both view trees have nine edges
SWEEP_CHECK_EVERY = 32
SWEEP_MARK_EVERY = 64     # plans between two host-speed marks
SERVE_CLIENTS = 2
SERVE_CYCLE = 10          # requests per client per round; one is a write
SERVE_TABLES = ("Supplier", "Customer")
#: Low enough that several checkpoint cycles complete inside one run.
SERVE_CHECKPOINT_EVERY = 5
#: Peak RSS of ``serve_mixed`` is read after this many rounds: the
#: per-view caches grow with every write, so the high-water mark of a
#: time-bounded run would measure how many writes fitted in, not the code.
SERVE_RSS_ROUNDS = 4
SETUP_REPEATS = 3


@dataclasses.dataclass
class Measured:
    """What one timed loop produced, before it becomes metrics."""

    op_ms: list            # wall per op, at reference host speed
    raw_op_ms: list        # wall per op, as the clock read
    timed_wall_s: float    # at reference host speed
    sim_ms: float          # summed over the ops that reported a time
    sim_ops: int
    attempted: int
    failed: int
    setup_s: float
    peak_rss_mb: float
    spin_ms: float         # median host-speed mark of the timed loop
    notes: dict = dataclasses.field(default_factory=dict)

    def end_to_end(self):
        return {
            "op_ms_p50": common.percentile(self.op_ms, 0.5),
            "op_ms_p90": common.percentile(self.op_ms, 0.9),
            "ops_per_s": common.ratio(len(self.op_ms), self.timed_wall_s),
            "sim_ms_per_op": common.ratio(self.sim_ms, self.sim_ops),
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.setup_s,
        }


def scale_ops(host, ops):
    """``[(chunk, wall)]`` to walls at reference host speed."""
    return [host.scaled(chunk, wall) for chunk, wall in ops]


def repeated_setup(build, dispose=None, repeats=SETUP_REPEATS):
    """Set up ``repeats`` times; return the last state and the median
    seconds (at reference host speed).  One set-up is too short to time
    steadily on this box."""
    host = HostSpeed()
    seconds = []
    state = None
    for _ in range(repeats):
        if state is not None and dispose is not None:
            dispose(state)
        gc.collect()
        start = time.perf_counter()
        state = build()
        seconds.append((host.chunk, time.perf_counter() - start))
        host.mark()
    return state, common.median(scale_ops(host, seconds))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DigestSink:
    """A sink that keeps a running SHA-256 and a character count — the
    byte-for-byte check of a streamed document in constant memory."""

    def __init__(self):
        self.chars = 0
        self.bytes = 0
        self._hash = hashlib.sha256()

    def write(self, text):
        data = text.encode("utf-8")
        self.chars += len(text)
        self.bytes += len(data)
        self._hash.update(data)
        return len(text)

    def hexdigest(self):
        return self._hash.hexdigest()


# -- output checks -----------------------------------------------------------


def reference_documents(database, config):
    """{query name: document} from a fresh session on the tuple engine —
    the row-at-a-time interpreter the batch engine must agree with."""
    return {
        qname: fresh_session(database, config, engine="tuple")
        .materialize(rxl).xml
        for qname, rxl in QUERIES.items()
    }


def sweep_reference(database, config, qname, reduce, partitions):
    """``(query_ms, transfer_ms, timed_out)`` of ``partitions`` from the
    tuple engine on a fresh, cache-less connection."""
    session = fresh_session(database, config, engine="tuple", cache=False)
    sweep = session.sweep(
        QUERIES[qname], partitions=partitions, reduce=reduce,
        budget_ms=SWEEP_BUDGET_MS, cache=False,
    ).sweep
    return [plan_outcome(timing) for timing in sweep.timings]


def plan_outcome(timing):
    return (timing.query_ms, timing.transfer_ms, timing.timed_out)


def check_sweeps(database, config, sweeps):
    """Failed-op count of ``sweeps`` = [(qname, reduce, timings)]: every
    32nd plan must match the tuple-engine reference bit for bit."""
    failed = 0
    references = {}
    for qname, reduce, timings in sweeps:
        sample = timings[::SWEEP_CHECK_EVERY]
        key = (qname, reduce)
        if key not in references:
            references[key] = sweep_reference(
                database, config, qname, reduce,
                [timing.partition for timing in sample],
            )
        failed += sum(
            plan_outcome(timing) != expected
            for timing, expected in zip(sample, references[key])
        )
    return failed


def check_serve(server, replies, config):
    """Failed-op count of a serve phase: the server's execution log,
    replayed serially on a fresh database, must reproduce every reply's
    XML and simulated timings as received over the wire."""
    replayed = server.replay(
        session=fresh_session(common.build_database(config), config),
    )
    answered = set()
    failed = 0
    for entry, theirs in zip(server.execution_log(), replayed):
        mine = replies.get(entry["request_id"])
        if mine is None:
            continue  # warm-up, or a request whose reply never arrived
        answered.add(entry["request_id"])
        if entry["kind"] == "query":
            same = (
                mine["xml_sha256"] == digest(theirs.xml)
                and mine["query_ms"] == theirs.report.query_ms
                and mine["transfer_ms"] == theirs.report.transfer_ms
            )
        else:
            same = mine["mutated"] == theirs.mutated
        failed += not same
    # A reply with no log entry was never executed by the server.
    return failed + len(set(replies) - answered)


# -- export_cold / export_stream --------------------------------------------


def export_op(session, qname, partition, streaming, sink=None):
    """One document out of ``session``.  Returns ``(result, sink)``;
    ``sink`` is None for ``export_cold``."""
    if not streaming:
        return session.materialize(QUERIES[qname], partition=partition), None
    sink = sink if sink is not None else CountingSink()
    return session.materialize_to(QUERIES[qname], sink, partition), sink


def export_setup(config, streaming):
    """Build the database and run one op per query, so lazy table
    statistics and indexes exist before the timed loop.  The warm-up is
    the workload's own op: a materializing warm-up would set the
    streaming workload's peak RSS."""
    database = common.build_database(config)
    for qname in QUERIES:
        export_op(fresh_session(database, config), qname, None, streaming)
    return database


def run_export(config, seconds, rng, streaming):
    database, setup_s = repeated_setup(
        lambda: export_setup(config, streaming),
    )
    ops = []            # (qname, partition, sha256 or None, chars)
    walls = []          # (host-speed chunk, wall ms) of each op
    sim_ms = 0.0
    errors = []
    host = HostSpeed()
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < seconds:
        for qname, partition in rng.sample(EXPORT_VARIANTS,
                                           len(EXPORT_VARIANTS)):
            gc.collect()
            start = time.perf_counter()
            try:
                # The op: a fresh Connection + Session (empty caches),
                # one document.
                result, sink = export_op(
                    fresh_session(database, config), qname, partition,
                    streaming,
                )
            except Exception as exc:  # a failed op; the loop keeps going
                errors.append(repr(exc))
                continue
            walls.append(
                (host.chunk, (time.perf_counter() - start) * 1000.0))
            host.mark()
            sim_ms += result.query_ms + result.transfer_ms
            if streaming:
                ops.append((qname, partition, None, sink.chars))
            else:
                ops.append((qname, partition, digest(result.xml),
                            len(result.xml)))
    rss = common.peak_rss_mb()

    references = reference_documents(database, config)
    expected = {
        qname: (digest(xml), len(xml)) for qname, xml in references.items()
    }
    failed = len(errors)
    for qname, _, sha, chars in ops:
        want_sha, want_chars = expected[qname]
        failed += chars != want_chars or (sha is not None and sha != want_sha)
    if streaming:
        # The timed ops discard the document (CountingSink); one more op
        # per variant into a hashing sink checks the bytes themselves.
        for qname, partition in EXPORT_VARIANTS:
            _, sink = export_op(fresh_session(database, config), qname,
                                partition, True, sink=DigestSink())
            if sink.hexdigest() != expected[qname][0]:
                # Every timed op of the variant produced these bytes.
                failed += sum(
                    1 for op in ops if op[:2] == (qname, partition)
                )
    attempted = len(ops) + len(errors)
    op_ms = scale_ops(host, walls)
    return Measured(
        op_ms=op_ms, raw_op_ms=[wall for _, wall in walls],
        timed_wall_s=sum(op_ms) / 1000.0, sim_ms=sim_ms, sim_ops=len(ops),
        attempted=attempted, failed=min(failed, attempted),
        setup_s=setup_s, peak_rss_mb=rss,
        spin_ms=common.median(host.spins),
        notes={"errors": errors[:3], "document_chars": expected["q1"][1]},
    )


# -- plan_sweep ---------------------------------------------------------------


def sweep_setup(config):
    """Build the database and sweep the two endpoint plans of each query,
    so lazy table statistics and indexes exist before the timed loop."""
    database = common.build_database(config)
    for rxl in QUERIES.values():
        session = fresh_session(database, config)
        view = session.view(rxl)
        session.sweep(
            rxl, budget_ms=SWEEP_BUDGET_MS,
            partitions=[view.unified_partition(), view.fully_partitioned()],
        )
    return database


def timed_sweep(database, config, qname, reduce, host):
    """One full sweep on a fresh Session; an op is one plan, timed from
    the ``progress`` callback, which also marks the host speed every
    ``SWEEP_MARK_EVERY`` plans (outside the timed regions).  Returns the
    sweep result and ``[(host-speed chunk, wall ms)]`` per plan."""
    session = fresh_session(database, config)
    walls = []
    started = [time.perf_counter()]

    def progress(done, total):
        walls.append(
            (host.chunk, (time.perf_counter() - started[0]) * 1000.0))
        if done % SWEEP_MARK_EVERY == 0 or done == total:
            host.mark()
        started[0] = time.perf_counter()

    result = session.sweep(
        QUERIES[qname], reduce=reduce, budget_ms=SWEEP_BUDGET_MS,
        progress=progress,
    )
    return result, walls


def run_sweep(config, seconds, rng):
    database, setup_s = repeated_setup(lambda: sweep_setup(config))
    sweeps = []
    walls = []
    sim_ms = 0.0
    sim_ops = timeouts = lost_plans = bad_plans = 0
    errors = []
    cache_notes = {}
    host = HostSpeed()
    loop_start = time.perf_counter()
    while not sweeps or time.perf_counter() - loop_start < seconds:
        for qname, reduce in rng.sample(SWEEP_VARIANTS, len(SWEEP_VARIANTS)):
            gc.collect()
            host.mark()
            try:
                result, plan_walls = timed_sweep(
                    database, config, qname, reduce, host)
            except Exception as exc:  # every plan of the sweep is lost
                errors.append(repr(exc))
                lost_plans += PLANS_PER_SWEEP
                continue
            sweep = result.sweep
            walls.extend(plan_walls)
            sweeps.append((qname, reduce, sweep.timings))
            completed = sweep.completed()
            sim_ms += sum(t.query_ms + t.transfer_ms for t in completed)
            sim_ops += len(completed)
            # Q1's chained-* plans exceed the simulated budget by design:
            # "no time was reported", not a failure.
            timeouts += len(sweep.timed_out())
            bad_plans += len(sweep.failed()) + len(sweep.shed())
            cache_notes = result.stats.get("sweep_cache", cache_notes)
    rss = common.peak_rss_mb()

    attempted = lost_plans + sum(len(timings) for _, _, timings in sweeps)
    failed = lost_plans + bad_plans + check_sweeps(database, config, sweeps)
    op_ms = scale_ops(host, walls)
    return Measured(
        op_ms=op_ms, raw_op_ms=[wall for _, wall in walls],
        timed_wall_s=sum(op_ms) / 1000.0, sim_ms=sim_ms, sim_ops=sim_ops,
        attempted=attempted, failed=min(failed, attempted),
        setup_s=setup_s, peak_rss_mb=rss,
        spin_ms=common.median(host.spins),
        notes={
            "errors": errors[:3], "timeouts": timeouts,
            "plan_cache_bytes": cache_notes.get("current_bytes"),
            "plan_cache_budget": cache_notes.get("max_bytes"),
            "plan_cache_evictions": cache_notes.get("evictions"),
        },
    )


# -- serve_mixed --------------------------------------------------------------


@dataclasses.dataclass
class ServeState:
    server: object
    address: tuple
    wal_dir: object

    def dispose(self):
        self.server.terminate(timeout=30.0)
        shutil.rmtree(self.wal_dir, ignore_errors=True)


def serve_setup(config):
    """Database, durable Session (WAL attached), Server on loopback, both
    views warmed once."""
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    wal_dir = common.RESULTS_DIR / f"wal-{time.time_ns()}"
    session = fresh_session(
        common.build_database(config), config,
        wal=wal_dir, checkpoint_every=SERVE_CHECKPOINT_EVERY,
    )
    server = Server(session=session, queries=QUERIES)
    address = server.start()
    for qname in QUERIES:
        server.query(qname)
    return ServeState(server, address, wal_dir)


def serve_request(client, client_index, i, seed, request_id):
    """Send request ``i`` of one client: a write every tenth request (the
    two clients' writes are five requests apart), else alternating reads.
    Returns ``(kind, raw reply)``."""
    if (i + 5 * client_index) % SERVE_CYCLE == 0:
        return "mutate", client.mutate(
            SERVE_TABLES[client_index], op="update", rows=2,
            seed=seed * 100_003 + client_index * 10_007 + i,
            request_id=request_id,
        )
    return "read", client.query(("q1", "q2")[i % 2], request_id=request_id)


@dataclasses.dataclass
class Request:
    """One request as its client saw it.  ``kind`` is ``"read"``,
    ``"mutate"`` or ``"error"`` (refused or dropped: ``reply`` is then the
    error text); ``chunk`` is the host-speed chunk (the round)."""

    request_id: str
    kind: str
    client: int
    chunk: int
    start: float
    wall_ms: float
    reply: object


def reply_summary(kind, reply):
    """What the output check needs of a reply (the document as a digest:
    keeping ~130 KB per read would be billed to the workload's RSS)."""
    if kind == "mutate":
        return {"mutated": reply["mutated"]}
    return {
        "xml_sha256": digest(reply["xml"]),
        "query_ms": reply["report"]["query_ms"],
        "transfer_ms": reply["report"]["transfer_ms"],
    }


class ServeRounds:
    """What the two clients share: they meet after every round of ten
    requests each.  Free-running closed-loop clients drift against each
    other, and whether their writes land together or apart changes the
    number of cold re-materializations per round by 2x — the meeting pins
    the schedule, so a run measures the code and not the drift.  While
    both wait, the host speed is marked, peak RSS is read after
    ``SERVE_RSS_ROUNDS`` rounds, and it is decided whether time is up."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.host = None
        self.start = None
        self.wall_s = 0.0
        self.more = True
        self.rounds = 0
        self.peak_rss_mb = None
        self.barrier = threading.Barrier(SERVE_CLIENTS, action=self._meet)

    def _meet(self):
        if self.host is None:       # the meeting before the first round
            self.host = HostSpeed()
            self.start = time.perf_counter()
            return
        self.rounds += 1
        self.wall_s = time.perf_counter() - self.start
        self.host.mark()
        if self.rounds == SERVE_RSS_ROUNDS:
            self.peak_rss_mb = common.peak_rss_mb()
        self.more = self.wall_s < self.seconds

    def finish(self):
        if self.peak_rss_mb is None:    # a run shorter than the rounds
            self.peak_rss_mb = common.peak_rss_mb()


def serve_client(address, client_index, seed, rounds, out):
    """One closed-loop client: rounds of ten requests until time is up."""
    requests = out[client_index] = []
    with ServeClient(*address, timeout=120.0) as client:
        rounds.barrier.wait(120)
        i = 0
        while rounds.more:
            for _ in range(SERVE_CYCLE):
                request_id = f"c{client_index}-{i}"
                start = time.perf_counter()
                try:
                    kind, reply = serve_request(
                        client, client_index, i, seed, request_id)
                except (ServeError, OSError) as exc:  # refused or dropped
                    kind, reply = "error", repr(exc)
                wall_ms = (time.perf_counter() - start) * 1000.0
                if kind != "error":
                    reply = reply_summary(kind, reply)
                requests.append(Request(
                    request_id, kind, client_index,
                    rounds.host.chunk, start, wall_ms, reply,
                ))
                i += 1
            rounds.barrier.wait(120)


def serve_phase(state, seed, seconds):
    """Run the clients; returns ``(requests, rounds)``."""
    out = {}
    rounds = ServeRounds(seconds)
    threads = [
        threading.Thread(
            target=serve_client,
            args=(state.address, index, seed, rounds, out),
        )
        for index in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rounds.finish()
    return [r for index in sorted(out) for r in out[index]], rounds


def run_serve(config, seconds):
    state, setup_s = repeated_setup(
        lambda: serve_setup(config), dispose=ServeState.dispose,
    )
    try:
        gc.collect()
        requests, rounds = serve_phase(state, config.seed, seconds)
        stats = state.server.stats()
        done = [r for r in requests if r.kind != "error"]
        errors = [r.reply for r in requests if r.kind == "error"]
        failed = len(errors) + check_serve(
            state.server, {r.request_id: r.reply for r in done}, config)
    finally:
        state.dispose()
    host = rounds.host
    reads = [r for r in done if r.kind == "read"]
    # The wall of the two-client phase at reference host speed: scaled by
    # the mean mark, every round having a mark on either side.
    phase_s = rounds.wall_s * common.SPIN_REFERENCE_MS \
        / common.mean(host.spins)
    return Measured(
        op_ms=scale_ops(host, [(r.chunk, r.wall_ms) for r in done]),
        raw_op_ms=[r.wall_ms for r in done], timed_wall_s=phase_s,
        sim_ms=sum(r.reply["query_ms"] + r.reply["transfer_ms"]
                   for r in reads),
        sim_ops=len(done), attempted=len(requests),
        failed=min(failed, len(requests)),
        setup_s=setup_s, peak_rss_mb=rounds.peak_rss_mb,
        spin_ms=common.median(host.spins),
        notes={
            "errors": errors[:3], "rounds": rounds.rounds,
            "reads": len(reads), "writes": len(done) - len(reads),
            "coalesced": stats["coalesced"], "shed": stats["shed"],
            "server_errors": stats["errors"],
            "plan_cache_bytes": stats["plan_cache"]["current_bytes"],
            "plan_cache_budget": stats["plan_cache"]["max_bytes"],
            "plan_cache_evictions": stats["plan_cache"]["evictions"],
            "wal": stats.get("wal"),
        },
    )


def run_workload(name, config, seconds):
    """The untraced, timed run of workload ``name``."""
    rng = random.Random(config.seed)
    if name == "export_cold":
        return run_export(config, seconds, rng, streaming=False)
    if name == "export_stream":
        return run_export(config, seconds, rng, streaming=True)
    if name == "plan_sweep":
        return run_sweep(config, seconds, rng)
    if name == "serve_mixed":
        return run_serve(config, seconds)
    raise ValueError(f"unknown workload {name!r}")
