"""Run the generated SQL on a real engine: SQLite beside the Connection.

Everything in this repository executes on the simulated engine with
deterministic, paper-shaped timings.  This example builds the real SQLite
target and calls the one comparison, ``cross_validate``: the SQL the
served plan sent runs on an in-memory SQLite mirror of the database,
every row is aligned with the simulated oracle, and the measured
wall-clock is reported *separately* — the session never learns of the
check, so its document and simulated numbers cannot move.  It then fits
the cost model's constants to the measured walls (calibration) and shows
how the calibrated model re-ranks candidate partitions.  Run::

    python examples/sqlite_backend.py
"""

from repro import (
    CostModel,
    Session,
    SqliteBackend,
    calibrate,
    cross_validate,
)
from repro.bench.queries import QUERY_1
from repro.core.sqlgen import SqlGenerator
from repro.relational.calibrate import plan_agreement
from repro.relational.connection import Connection
from repro.tpch.generator import TpchGenerator, TpchScale


def main():
    # A small TPC-H instance keeps the example quick.
    scale = TpchScale(suppliers=8, parts=16, customers=10, orders=40)
    database = TpchGenerator(scale=scale, seed=42).generate()

    # 1. Materialize the Query 1 view, then check the plan it served on
    #    SQLite: the specs are the very statements the session sent, the
    #    session's engine is the oracle, the backend the witness.
    session = Session(Connection(database, CostModel()))
    served = session.materialize(QUERY_1, "fully-partitioned")
    backend = SqliteBackend(database)
    checked = cross_validate(
        session.connection.engine,
        session.view(QUERY_1).specs("fully-partitioned"), backend,
    )
    backend.close()
    assert sum(oracle.server_ms for _, oracle, _ in checked) \
        == served.report.query_ms
    print(f"{len(checked)} streams, "
          f"{sum(len(oracle.rows) for _, oracle, _ in checked)} rows "
          f"cross-validated on SQLite ({len(served.xml)} bytes of XML)")
    print(f"simulated query time (unchanged): "
          f"{served.report.query_ms:.1f}ms")
    print(f"measured SQLite wall (reported separately): "
          f"{sum(sum(walls) for _, _, walls in checked):.1f}ms")

    # 2. Calibrate the cost model against measured walls: sweep a few
    #    partitions' streams on SQLite and fit per-group scale factors.
    connection = Connection(database, CostModel())
    from repro.bench.queries import load_view
    from repro.core.partition import enumerate_partitions

    tree = load_view(QUERY_1, database.schema)
    partitions = list(enumerate_partitions(tree))
    generator = SqlGenerator(tree, database.schema)
    sample = partitions[:: max(1, len(partitions) // 8)]
    specs = [
        spec for partition in sample
        for spec in generator.streams_for_partition(partition)
    ]
    result = calibrate(connection, specs, repeats=2)
    print(f"\ncalibrated on {len(result.observations)} measured "
          f"statements; fitted scales:")
    for group, scale_factor in sorted(result.scales.items()):
        print(f"  {group:>13}: x{scale_factor:.4f}")

    # 3. The calibrated model is a drop-in CostModel: rank the sampled
    #    partitions under both models and compare against measurement.
    from repro.relational.engine import QueryEngine

    default_engine = connection.engine
    calibrated_engine = QueryEngine(database, result.model)
    walls, default_costs, calibrated_costs = [], [], []
    backend = SqliteBackend(database)
    for partition in sample:
        partition_specs = generator.streams_for_partition(partition)
        walls.append(sum(
            backend.execute_sql(s.plan, s.sql)[1] for s in partition_specs
        ))
        default_costs.append(sum(
            default_engine.execute(s.plan).server_ms
            for s in partition_specs
        ))
        calibrated_costs.append(sum(
            calibrated_engine.execute(s.plan).server_ms
            for s in partition_specs
        ))
    backend.close()
    print("\nplan-pick agreement with measured walls over "
          f"{len(sample)} partitions:")
    for name, costs in (("default", default_costs),
                        ("calibrated", calibrated_costs)):
        agreement = plan_agreement(costs, walls)
        print(f"  {name:>10}: top1={agreement['top1']}, "
              f"concordance={agreement['concordance']:.3f}")


if __name__ == "__main__":
    main()
