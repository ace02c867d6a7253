"""Real-backend wall-clock sweep: SQLite across the partition spectrum.

Everything else in this repository times the *simulated* cost model; this
bench is the one place wall clocks are real.  A larger-than-Config-A
TPC-H instance is mirrored into in-memory SQLite and a sample of Query 1
partitions — both endpoints plus a spread of mid-size plans — executes
its generated SQL for real, cross-validated row-for-row against the
simulated oracle (any divergence fails the bench, so ``byte_identical``
in the JSON is earned, not asserted).

Three things are recorded to ``BENCH_sqlite.json``:

* the measured wall per partition, demonstrating the paper's Sec. 6
  shape on a real engine: the unified plan drowns in its padded outer
  join, the fully partitioned plan pays per-stream redundant join work,
  and a mid-size partition beats both;
* the calibrated cost model fitted to those measurements
  (:mod:`repro.relational.calibrate`) with its per-group scales;
* plan-pick agreement (top-1 and pairwise concordance) of the default
  and the calibrated model against the measured ordering — the number CI
  watches for regressions.
"""

import json
import pathlib
from statistics import median

from repro.bench.queries import QUERY_1, load_view
from repro.core.partition import enumerate_partitions
from repro.core.sqlgen import SqlGenerator
from repro.relational.backends import SqliteBackend, cross_validate
from repro.relational.calibrate import (
    CALIBRATION_GROUPS,
    CalibrationObservation,
    apply_scales,
    fit_scales,
    group_features,
    plan_agreement,
)
from repro.relational.engine import CostModel, QueryEngine
from repro.tpch.generator import TpchGenerator, TpchScale

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Config A's instance is too small for real walls — every statement runs
# in statement-overhead time.  10x the rows puts the unified plan's outer
# join in the seconds and leaves the best mid-size partition ~10% under
# the fully partitioned endpoint, a margin that survives machine noise.
BENCH_SCALE = TpchScale(suppliers=200, parts=800, customers=500, orders=4000)

# Every 64th partition plus a few hand-picked mids and the unified
# endpoint: 10 plans spanning 1..10 streams.  (All 512 partitions would
# push the bench past the runtime budget without changing the shape.)
CANDIDATE_STRIDE = 64
REPEATS = 3
# Statements slower than this get a single measured run — at that
# magnitude per-run noise is irrelevant and two more repeats of a
# multi-second outer join buy nothing.
SINGLE_RUN_ABOVE_MS = 500.0


def test_sqlite_partition_sweep(report_writer):
    db = TpchGenerator(scale=BENCH_SCALE, seed=42).generate()
    tree = load_view(QUERY_1, db.schema)
    partitions = list(enumerate_partitions(tree))
    generator = SqlGenerator(tree, db.schema)
    engine = QueryEngine(db, CostModel())
    backend = SqliteBackend(db)

    indices = sorted(set(
        list(range(0, len(partitions), CANDIDATE_STRIDE))
        + [192, 320, 480, len(partitions) - 1]
    ))

    candidates = []
    observations = []
    for index in indices:
        specs = generator.streams_for_partition(partitions[index])
        simulated_ms = 0.0
        wall_ms = 0.0
        # The cross-validation pass: a row divergence fails the bench
        # here, which is what licenses the byte_identical flag in the
        # payload.
        for spec, result, walls in cross_validate(engine, specs, backend):
            simulated_ms += result.server_ms
            if walls[0] < SINGLE_RUN_ABOVE_MS:
                for _ in range(REPEATS - 1):
                    walls.append(
                        backend.execute_sql(spec.plan, spec.sql)[1]
                    )
            wall_ms += median(walls)
            observations.append(CalibrationObservation(
                label=f"p{index}/{spec.label}",
                features=group_features(result.breakdown),
                wall_ms=median(walls),
            ))
        candidates.append({
            "index": index,
            "streams": len(specs),
            "wall_ms": round(wall_ms, 3),
            "simulated_default_ms": round(simulated_ms, 3),
        })

    # Fit the cost model to the measured walls and re-predict.
    scales = fit_scales(observations)
    calibrated = apply_scales(engine.cost_model, scales)
    calibrated_engine = QueryEngine(db, calibrated)
    for candidate in candidates:
        specs = generator.streams_for_partition(partitions[candidate["index"]])
        candidate["simulated_calibrated_ms"] = round(
            sum(calibrated_engine.execute(s.plan).server_ms for s in specs),
            3,
        )

    by_streams = sorted(candidates, key=lambda c: c["streams"])
    unified = by_streams[0]
    fully_partitioned = by_streams[-1]
    assert unified["streams"] == 1
    mids = [c for c in candidates
            if c is not unified and c is not fully_partitioned]
    best = min(mids, key=lambda c: c["wall_ms"])

    # The paper's Sec. 6 shape, on a real engine: some mid-size
    # partition strictly beats both endpoints on measured wall.
    assert best["wall_ms"] < unified["wall_ms"]
    assert best["wall_ms"] < fully_partitioned["wall_ms"]

    walls = [c["wall_ms"] for c in candidates]
    agreement = {
        "default": plan_agreement(
            [c["simulated_default_ms"] for c in candidates], walls
        ),
        "calibrated": plan_agreement(
            [c["simulated_calibrated_ms"] for c in candidates], walls
        ),
    }

    payload = {
        "experiment": "q1_sqlite_partition_sweep",
        "backend": "sqlite(:memory:)",
        "scale": {
            "suppliers": BENCH_SCALE.suppliers,
            "parts": BENCH_SCALE.parts,
            "customers": BENCH_SCALE.customers,
            "orders": BENCH_SCALE.orders,
        },
        "repeats": REPEATS,
        "candidates": candidates,
        "fully_partitioned_wall_ms": fully_partitioned["wall_ms"],
        "unified_wall_ms": unified["wall_ms"],
        "best_mid_size": best,
        "mid_size_beats_both_endpoints": True,
        "calibration": {
            "observations": len(observations),
            "scales": {g: round(scales[g], 6) for g in CALIBRATION_GROUPS},
            "constants": {
                "scan_row_ms": calibrated.scan_row_ms,
                "filter_row_ms": calibrated.filter_row_ms,
                "project_row_ms": calibrated.project_row_ms,
                "hash_row_ms": calibrated.hash_row_ms,
                "sort_cmp_ms": calibrated.sort_cmp_ms,
                "startup_ms": calibrated.startup_ms,
            },
        },
        "plan_agreement": agreement,
        "byte_identical": True,
    }
    (REPO_ROOT / "BENCH_sqlite.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    backend.close()

    report_writer(
        "sqlite_partition_sweep",
        f"{len(candidates)} partitions x {REPEATS} repeats on SQLite, "
        f"all rows cross-validated against the simulated oracle\n"
        f"unified {unified['wall_ms']:.1f}ms, fully partitioned "
        f"{fully_partitioned['wall_ms']:.1f}ms, best mid-size "
        f"(partition {best['index']}, {best['streams']} streams) "
        f"{best['wall_ms']:.1f}ms\n"
        f"plan agreement vs measurement — default model: "
        f"top1={agreement['default']['top1']}, "
        f"concordance={agreement['default']['concordance']:.3f}; "
        f"calibrated: top1={agreement['calibrated']['top1']}, "
        f"concordance={agreement['calibrated']['concordance']:.3f}",
    )
