"""The crash/chaos harness: SIGKILL a serving process, restart, compare.

This module is both a library (the parent-side helpers the recovery
bench and tests drive) and a program (``python -m repro.bench.crash``,
the child that kills itself).  The experiment:

1. The parent picks a deterministic mutation plan and a **crash spec** —
   a store commit point (:data:`repro.relational.store.CRASH_POINTS`:
   the request written but not committed, or committed but not yet
   handed back to the database) or ``mid_response`` (the mutation
   commits and applies, then the process dies before acknowledging) —
   and launches the child.
2. The child builds the tiny deterministic database, wraps it in a
   durable :class:`~repro.serve.Server` (``checkpoint_every`` small, so
   crashes land between checkpoints too), applies the plan one mutation
   per request id, prints ``ACK <request_id> <mutated>`` after each
   commit — and SIGKILLs itself when the crash spec fires.  No cleanup
   handlers run; the kill is as honest as a power cut.
3. The parent restarts a server on the directory, the way a restarted
   process would (a fresh deterministic base, then the store's state),
   and compares it against a **never-crashed oracle**: a fresh database
   with the *committed prefix* of the plan applied (the store's request
   record says exactly which requests committed — ACKs alone cannot,
   since ``mid_response`` commits without acknowledging).  Comparison is
   the repo's strongest equivalence: byte-identical XML and bit-identical
   simulated timings for every workload query, evaluated on both engines
   (a session built on the reference interpreter and one on the batch
   kernels) and, for a round that asks, checked statement by statement
   on SQLite — the store's own file for the restarted database
   (:func:`~repro.relational.backends.cross_validate`), plus identical
   generation vectors.
4. Exactly-once: the parent retries *every* request id of the plan on
   the restarted server — committed ones must deduplicate (served from
   the store's recorded results), lost ones must apply — and the final
   state must equal the full-plan oracle.

Everything is deterministic given the seed, so a failure reproduces.
"""

import json
import os
import signal
import subprocess
import sys

from repro.relational.store import CRASH_POINTS
from repro.tpch.generator import TpchGenerator, TpchScale

#: Small enough that a soak round is fast, big enough that q1/q2 exercise
#: joins, nesting, and every table the mutations touch.
CRASH_SCALE = TpchScale(suppliers=8, parts=16, customers=10, orders=40)

#: Tables the plan mutates: parents of the workload queries' joins, so
#: every delta moves bytes in the served documents.
MUTATION_TABLES = ("Nation", "Supplier", "Customer")

#: Crash specs the harness runs: the store's commit points plus the
#: commit-then-die response path.
CRASH_POINT_CHOICES = (*CRASH_POINTS, "mid_response")


def build_database(seed=42):
    """The deterministic database every run (child, oracle, replay)
    starts from."""
    return TpchGenerator(CRASH_SCALE, seed=seed).generate()


def mutation_plan(n_ops, seed=0):
    """A deterministic mutation plan: ``n_ops`` entries of
    ``(request_id, table, op, rows, op_seed)``.  Inserts and updates
    only — deletes would eventually empty the tiny tables mid-soak —
    spread over :data:`MUTATION_TABLES`."""
    plan = []
    for i in range(n_ops):
        table = MUTATION_TABLES[(seed + i) % len(MUTATION_TABLES)]
        op = ("insert", "update")[(seed + i * 7) % 2]
        rows = 1 + (seed + i * 3) % 3
        plan.append((f"m-{seed}-{i}", table, op, rows, seed * 1000 + i))
    return plan


def apply_plan(database, plan):
    """Apply ``plan`` directly (no server, no store) — the oracle path.
    Returns the per-request mutated counts."""
    from repro.session import apply_delta

    counts = []
    for _, table, op, rows, op_seed in plan:
        counts.append(apply_delta(database, table, op=op, rows=rows,
                                  seed=op_seed))
    return counts


def build_server(wal_dir, checkpoint_every=5):
    """A durable server over the deterministic database, exposing the
    workload queries; on a directory with state, the restarted one."""
    from repro.bench.queries import QUERY_1, QUERY_2
    from repro.serve import Server
    from repro.session import Session

    return Server(
        Session(build_database(), wal=wal_dir,
                checkpoint_every=checkpoint_every),
        queries={"q1": QUERY_1, "q2": QUERY_2},
    )


# -- equivalence -----------------------------------------------------------


def fingerprint(database, engines=("tuple", "batch"), backends=("simulated",),
                queries=("q1", "q2")):
    """The strongest cheap identity of a database's *served* behaviour:
    for every (query, engine, backend) combination the XML text and the
    simulated timings, plus the generation vector and row counts.

    Every key is an evaluation.  Each engine gets a fresh session over a
    connection built in that mode, so nothing is a replay of another
    engine's cache entry; ``"sqlite"`` in ``backends`` additionally runs
    the served plan's SQL on SQLite — the store's file when ``database``
    has one, else a mirror loaded from it — and aligns its rows with that
    engine's (:func:`~repro.relational.backends.cross_validate`, raising
    :class:`~repro.common.errors.BackendMismatchError` on any divergence)
    — which is what proves the file a restart loaded holds what the
    engines serve.
    """
    from repro.bench.queries import QUERY_1, QUERY_2
    from repro.relational.backends import SqliteBackend, cross_validate
    from repro.relational.connection import Connection
    from repro.relational.engine import CostModel
    from repro.session import Session

    rxl = {"q1": QUERY_1, "q2": QUERY_2}
    out = {
        "generations": dict(sorted(database.table_generations().items())),
        "rows": {name: len(t) for name, t in sorted(database.tables.items())},
    }
    mirror = SqliteBackend(database)
    try:
        for engine in engines:
            session = Session(Connection(database, CostModel(), engine=engine))
            for query in queries:
                result = session.materialize(rxl[query], root_tag="view")
                served = {
                    "xml_bytes": len(result.xml),
                    "xml": result.xml,
                    "query_ms": result.report.query_ms,
                    "transfer_ms": result.report.transfer_ms,
                }
                for backend in backends:
                    if backend == "sqlite":
                        cross_validate(
                            session.connection.engine,
                            session.view(rxl[query]).specs(), mirror,
                        )
                    out[f"{query}/{engine}/{backend}"] = served
    finally:
        mirror.close()
    return out


def diff_fingerprints(recovered, oracle):
    """Human-readable differences between two :func:`fingerprint` maps
    (empty list == bit-identical serves)."""
    diffs = []
    for key in sorted(set(recovered) | set(oracle)):
        a, b = recovered.get(key), oracle.get(key)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict) and "xml" in (a or {}):
            for field in ("xml", "query_ms", "transfer_ms"):
                if a.get(field) != b.get(field):
                    diffs.append(
                        f"{key}.{field}: recovered "
                        f"{str(a.get(field))[:80]!r} != oracle "
                        f"{str(b.get(field))[:80]!r}"
                    )
        else:
            diffs.append(f"{key}: recovered {a!r} != oracle {b!r}")
    return diffs


# -- the child -------------------------------------------------------------


def _install_crash(spec):
    """Arm the crash: for a store point, SIGKILL self when the point has
    been crossed ``spec['after']`` times; ``mid_response`` is handled by
    the mutation loop instead."""
    from repro.relational import store

    point = spec.get("point")
    if point is None or point == "mid_response":
        return
    remaining = [spec.get("after", 1)]

    def hook(name):
        if name == point:
            remaining[0] -= 1
            if remaining[0] <= 0:
                os.kill(os.getpid(), signal.SIGKILL)

    store._crash_point = hook


def child_main(argv=None):
    """The crashing process: apply the plan through a durable server,
    ACK each commit on stdout, die where the spec says."""
    spec = json.loads((argv or sys.argv[1:])[0])
    server = build_server(spec["wal_dir"],
                          checkpoint_every=spec.get("checkpoint_every", 5))
    _install_crash(spec)
    plan = mutation_plan(spec["n_ops"], seed=spec.get("seed", 0))
    mid_response_at = (spec.get("after", 1) - 1
                       if spec.get("point") == "mid_response" else None)
    for i, (request_id, table, op, rows, op_seed) in enumerate(plan):
        result = server.mutate(table, op=op, rows=rows, seed=op_seed,
                               request_id=request_id)
        if mid_response_at is not None and i == mid_response_at:
            # Committed and applied — but the client never hears back.
            os.kill(os.getpid(), signal.SIGKILL)
        print(f"ACK {request_id} {result.mutated}", flush=True)
    print("DONE", flush=True)
    return 0


def run_child(wal_dir, n_ops, seed=0, point=None, after=1,
              checkpoint_every=5, timeout=120):
    """Launch the child and wait for it to die (or finish); returns
    ``(acked request ids, return code)``.  ``point=None`` runs the plan
    to completion (the no-crash control)."""
    spec = {
        "wal_dir": str(wal_dir), "n_ops": n_ops, "seed": seed,
        "point": point, "after": after, "checkpoint_every": checkpoint_every,
    }
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.crash", json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    acked = [
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith("ACK ")
    ]
    return acked, proc.returncode


# -- the parent-side experiment --------------------------------------------


def run_crash_round(wal_dir, n_ops=12, seed=0, point=None, after=1,
                    checkpoint_every=5, backends=("simulated",)):
    """One full crash → restart → compare → retry-all round.

    Returns a result dict: what was committed, the restart's numbers, and
    the diff lists (both empty on success) of the committed-prefix
    comparison and the post-retry full-plan comparison.
    """
    from time import perf_counter

    plan = mutation_plan(n_ops, seed=seed)
    acked, returncode = run_child(
        wal_dir, n_ops, seed=seed, point=point, after=after,
        checkpoint_every=checkpoint_every,
    )
    crashed = returncode != 0

    # Restart the way a crashed server does: the deterministic base, then
    # the store's committed rows and generations over it.
    started = perf_counter()
    server = build_server(wal_dir, checkpoint_every=checkpoint_every)
    restart_wall_ms = (perf_counter() - started) * 1000.0
    database = server.session.database
    store = database.store

    # The store, not the ACK stream, is the truth about what committed:
    # mid_response commits without ACKing.
    committed = [entry[0] for entry in plan
                 if store.request_result(entry[0]) is not None]
    assert committed[:len(acked)] == acked or set(acked) <= set(committed), (
        f"ACKed requests missing from the store: "
        f"{sorted(set(acked) - set(committed))}"
    )

    oracle = build_database()
    apply_plan(oracle, [e for e in plan if e[0] in set(committed)])
    prefix_diffs = diff_fingerprints(
        fingerprint(database, backends=backends),
        fingerprint(oracle, backends=backends),
    )

    # Exactly-once: retry EVERYTHING on the restarted server.
    deduped = applied = 0
    for request_id, table, op, rows, op_seed in plan:
        result = server.mutate(table, op=op, rows=rows, seed=op_seed,
                               request_id=request_id)
        if result.stats.get("deduplicated"):
            deduped += 1
        else:
            applied += 1
    full_oracle = build_database()
    apply_plan(full_oracle, plan)
    retry_diffs = diff_fingerprints(
        fingerprint(database, backends=backends),
        fingerprint(full_oracle, backends=backends),
    )
    server.terminate()

    return {
        "point": point, "after": after, "n_ops": n_ops, "seed": seed,
        "crashed": crashed, "acked": len(acked),
        "committed": len(committed),
        "restart_wall_ms": restart_wall_ms,
        "rows_restored": store.restored,
        "retries_deduplicated": deduped,
        "retries_applied": applied,
        "prefix_diffs": prefix_diffs,
        "retry_diffs": retry_diffs,
    }


if __name__ == "__main__":
    raise SystemExit(child_main())
