"""Recovery soak: SIGKILL the serving process at each crash point,
restart it on its store, and prove the restarted server is
indistinguishable.

Each round drives :func:`repro.bench.crash.run_crash_round`: a child
process applies a deterministic mutation plan through a
:class:`~repro.serve.Server` over a SQLite store and kills itself —
honestly, ``SIGKILL``, no cleanup handlers — at a named point: with a
request written but not committed, committed but not yet handed back,
or after committing and applying but before acknowledging.  The parent
restarts a server on the directory and holds it to the repo's strongest
equivalence:

* the restarted database serves **byte-identical XML with bit-identical
  simulated timings** versus a never-crashed oracle that applied exactly
  the committed prefix — for every workload query, on both engines, and
  (for the rounds that ask) statement by statement on SQLite: the
  store's own file for the restarted database;
* retrying the *entire* plan against the restarted server is
  **exactly-once**: committed requests deduplicate from the store's
  recorded results, lost ones apply, and the final state equals the
  full-plan oracle.

Restart wall-clock times land in ``BENCH_recovery.json`` at the
repository root; they are informational.
"""

import itertools
import json
import pathlib
import shutil
import statistics
import tempfile
import time

from repro.bench.crash import CRASH_POINT_CHOICES, run_crash_round

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The soak schedule: the no-crash control, then every crash point at the
#: first commit and at the sixth, after a checkpoint (every fifth commit),
#: seeds staggered so plans differ between rounds.  The final round also
#: runs the fingerprints on SQLite (which cross-validates every stream
#: against the simulated engine).
ROUNDS = (
    [{"point": None, "after": 1, "seed": 7, "backends": ("simulated",)}]
    + [
        {
            "point": point,
            "after": after,
            "seed": 11 + i,
            "backends": ("simulated",),
        }
        for i, (point, after) in enumerate(
            itertools.product(CRASH_POINT_CHOICES, (1, 6)))
    ]
)
ROUNDS[-1]["backends"] = ("simulated", "sqlite")

N_OPS = 12


def test_recovery_soak(report_writer):
    rounds = []
    for spec in ROUNDS:
        wal_dir = tempfile.mkdtemp(prefix="bench-crash-")
        started = time.perf_counter()
        try:
            result = run_crash_round(
                wal_dir, n_ops=N_OPS, seed=spec["seed"],
                point=spec["point"], after=spec["after"],
                backends=spec["backends"],
            )
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        result["round_wall_s"] = round(time.perf_counter() - started, 3)
        result["backends"] = list(spec["backends"])

        label = spec["point"] or "control"
        assert result["prefix_diffs"] == [], (label, result["prefix_diffs"])
        assert result["retry_diffs"] == [], (label, result["retry_diffs"])
        if spec["point"] is None:
            assert not result["crashed"]
            assert result["committed"] == N_OPS
        else:
            assert result["crashed"], f"{label} never fired"
            # A kill before COMMIT loses the request it interrupted; one
            # after it keeps it.
            kept = spec["after"] - (spec["point"] == "before_commit")
            assert result["committed"] == kept, label
        # Exactly-once over the whole plan: everything committed before
        # the crash deduplicates, everything lost applies.
        assert result["retries_deduplicated"] == result["committed"]
        assert result["retries_applied"] == N_OPS - result["committed"]
        rounds.append(result)

    restart_ms = [r["restart_wall_ms"] for r in rounds]
    payload = {
        "experiment": "crash_recovery_soak",
        "rounds": len(rounds),
        "ops_per_round": N_OPS,
        "crash_points": list(CRASH_POINT_CHOICES),
        "restart_ms": {
            "mean": round(statistics.mean(restart_ms), 3),
            "max": round(max(restart_ms), 3),
        },
        "committed": sum(r["committed"] for r in rounds),
        "retries_deduplicated": sum(r["retries_deduplicated"]
                                    for r in rounds),
        "retries_applied": sum(r["retries_applied"] for r in rounds),
        "zero_diffs": all(
            not r["prefix_diffs"] and not r["retry_diffs"] for r in rounds
        ),
        "per_round": [
            {
                "point": r["point"] or "control",
                "after": r["after"],
                "crashed": r["crashed"],
                "acked": r["acked"],
                "committed": r["committed"],
                "restart_wall_ms": round(r["restart_wall_ms"], 3),
                "rows_restored": r["rows_restored"],
                "backends": r["backends"],
            }
            for r in rounds
        ],
    }
    (REPO_ROOT / "BENCH_recovery.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    crashed = sum(1 for r in rounds if r["crashed"])
    report_writer(
        "recovery_soak",
        f"{len(rounds)} rounds ({crashed} SIGKILLed) x {N_OPS} mutations: "
        f"restarted in {payload['restart_ms']['mean']:.1f}ms mean / "
        f"{payload['restart_ms']['max']:.1f}ms max\n"
        f"{payload['committed']} requests committed before the kills, "
        f"{payload['retries_deduplicated']} retries deduplicated / "
        f"{payload['retries_applied']} applied\n"
        f"zero XML/timing diffs vs the never-crashed oracle: "
        f"{payload['zero_diffs']}",
    )
