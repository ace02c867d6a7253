"""Incremental view maintenance wall-clock bench: delta vs full invalidation.

The scenario the delta-propagation layer exists for: the 512 plans of the
Query 1 / Configuration A sweep have all been materialized as XML, then a
~1%-of-rows update lands on one table.  Re-materializing every plan's view
with the dependency-scoped caches re-executes only the streams that read
the mutated table, tags the document once (re-tagging only the top-level
elements whose rows changed and copying the others from the last
document), and serves the other plans from the document cache — while
before this subsystem existed a write staled every
generation-keyed entry, so each of the 512 plans re-executed, re-decoded,
re-merged, and re-tagged from scratch.  That pre-IVM behaviour is the
baseline here, reproduced with a fresh connection and no splice layer.

Identity is the hard constraint: the caches may not move a simulated
millisecond or a byte.  Every incremental materialization is compared
byte-for-byte and timing-for-timing against the baseline's cold run on the
mutated database, and a sample of plans is re-run on the row-at-a-time
tuple engine as an independent bit-identity oracle.

Results go to ``benchmarks/results/ivm_delta.txt``.
"""

import time

from repro.bench.queries import QUERY_1
from repro.core.options import ExecutionOptions
from repro.core.partition import enumerate_partitions
from repro.core.silkroute import SilkRoute
from repro.relational.connection import Connection
from repro.tpch.configs import CONFIG_A, build_configuration
from repro.xmlgen.tagger import tag_streams


# Every 64th plan re-runs on the tuple interpreter (8 of 512): enough to
# catch an engine divergence without paying the interpreter's full sweep.
TUPLE_SAMPLE_STRIDE = 64


def apply_delta(db, fraction=0.01):
    """Update ~``fraction`` of Customer rows (name gets a suffix, so the
    unique candidate key stays unique and the delta is visible in the
    view).  Returns the updated-row count."""
    customers = db.table("Customer")
    count = max(1, int(len(customers) * fraction))
    keys = set(customers.column_values("custkey")[:count])
    return db.update(
        "Customer",
        lambda row: row["custkey"] in keys,
        {"name": lambda row: row["name"] + "~"},
    )


def materialize_all(view, partitions):
    """Materialize every partition; returns (xml, [(query, transfer)], s)."""
    xml = None
    timings = []
    start = time.perf_counter()
    for partition in partitions:
        result = view.materialize(partition, root_tag="view")
        if xml is None:
            xml = result.xml
        else:
            # Every partition of a view materializes the identical
            # document — the invariant the document cache is built on.
            assert result.xml == xml
        timings.append(
            (result.report.query_ms, result.report.transfer_ms)
        )
    return xml, timings, time.perf_counter() - start


def baseline_all(view, partitions, ivm_xml, ivm_timings):
    """The pre-IVM re-materialization: execute and tag every plan with no
    instance or document cache (those layers are dependency-keyed and did
    not exist before delta propagation).  Asserts byte- and
    timing-identity against the incremental pass as it goes, discarding
    each document immediately so 512 multi-megabyte strings never
    coexist.  Returns elapsed seconds."""
    start = time.perf_counter()
    for i, partition in enumerate(partitions):
        # reduce=True matches the materializer's default, so the baseline
        # runs the very same reduced plans.
        opts = ExecutionOptions(reduce=True)
        outcome = view._dispatch(
            partition, view.specs(partition, options=opts), opts
        )
        report = view._outcome_report(partition, outcome, opts)
        layout = view.definition.layout
        xml, _ = tag_streams(
            view.tree, outcome.specs, outcome.streams, root_tag="view",
            layout=layout,
            walk=layout.walks(outcome.specs, view.silkroute.connection.database))
        assert xml == ivm_xml
        assert (report.query_ms, report.transfer_ms) == ivm_timings[i]
    return time.perf_counter() - start


def test_ivm_delta_speedup(report_writer):
    db, conn, estimator = build_configuration(CONFIG_A)
    silk = SilkRoute(conn, estimator=estimator, cache=True)
    view = silk.define_view(QUERY_1)
    partitions = list(enumerate_partitions(view.tree))
    assert len(partitions) == 512

    # Warm: all 512 plans' views materialized, caches full.
    _, _, warm_s = materialize_all(view, partitions)

    rows_updated = apply_delta(db)
    total_rows = sum(len(t) for t in db.tables.values())

    # Incremental: only Customer-dependent entries re-execute; the first
    # plan re-tags the suppliers whose rows changed (copying the others
    # from the last tagging), the rest serve the re-filled document key.
    ivm_xml, ivm_timings, ivm_s = materialize_all(view, partitions)
    plan_stats = silk.cache.stats()
    doc_stats = view.document_cache.stats()

    # Pre-IVM behaviour, doubling as the cold batch oracle: a fresh
    # connection over the mutated database (a fresh plan cache that
    # refills during the pass — the write staled every old entry), no
    # splice or document layer, every plan tagged from scratch.
    _, full_conn, full_estimator = build_configuration(CONFIG_A, database=db)
    full_view = SilkRoute(
        full_conn, estimator=full_estimator, cache=True
    ).define_view(QUERY_1)
    full_s = baseline_all(full_view, partitions, ivm_xml, ivm_timings)

    # Independent oracle: a connection built on the row-at-a-time
    # interpreter, on a plan sample.
    tuple_conn = Connection(db, CONFIG_A.cost_model, CONFIG_A.transfer_model,
                            engine="tuple")
    tuple_view = SilkRoute(
        tuple_conn, estimator=full_estimator, cache=True
    ).define_view(QUERY_1)
    sample = partitions[::TUPLE_SAMPLE_STRIDE]
    tuple_s = baseline_all(
        tuple_view, sample, ivm_xml,
        ivm_timings[::TUPLE_SAMPLE_STRIDE],
    )

    speedup = full_s / ivm_s if ivm_s else float("inf")
    # Loose in-test floor; the results file records the real figure.
    assert speedup >= 3.0

    report_writer(
        "ivm_delta",
        f"{rows_updated} row(s) updated "
        f"({rows_updated / total_rows:.2%} of the database)\n"
        f"incremental re-materialization of 512 plans {ivm_s:.2f}s vs "
        f"full invalidation {full_s:.2f}s ({speedup:.1f}x); tuple oracle "
        f"{tuple_s:.2f}s over {len(sample)} plans\n"
        f"plan cache: {plan_stats.invalidations} invalidated, "
        f"{plan_stats.hits} hits; document cache: {doc_stats['hits']} "
        "hits\n"
        "simulated timings bit-identical and XML byte-identical across "
        "incremental, full-invalidation, and tuple-engine runs",
    )
