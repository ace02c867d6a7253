"""Regenerate the cache table of DESIGN.md §6.

    PYTHONPATH=src python3 benchmarks/cache_table.py               # rewrite it
    PYTHONPATH=src python3 benchmarks/cache_table.py --workload plan_sweep

Every bounded map in ``src/`` is a :class:`repro.relational.cache.BoundedCache`
with a name, so one hook on its constructor sees them all (but the one
created at import, ``codegen.CODE``, added by hand).  For each of the
four harness workloads this runs the harness's own traced run
(``benchmarks/perf/run.py --workload W --trace 1``) in a child process with
that hook installed, and adds up, per cache name, the counters of every
instance the run created: hit rate = hits / (hits + misses) over all of
them, peak = the most entries any one of them held.  The key and
invalidation columns are facts about the code and are written here; the
bounds are read off the live caches.  The per-view memo of prepared plans
(``SqlGenerator._stream_cache``) is a plain dict bounded by the view tree,
not a ``BoundedCache``: a second hook, on ``SqlGenerator.__init__``, reads
the largest one's size, and its row is written out below the others.  With
``--workload`` the process is the child: it prints that workload's
counters as one JSON object.
"""

import argparse
import contextlib
import io
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks" / "perf")]

import run  # noqa: E402  (benchmarks/perf/run.py)
from repro.core.sqlgen import SqlGenerator  # noqa: E402
from repro.relational.cache import BoundedCache  # noqa: E402
from repro.relational.codegen import CODE  # noqa: E402

WORKLOADS = run.WORKLOADS
BEGIN = "<!-- cache-table:begin (benchmarks/cache_table.py) -->"
END = "<!-- cache-table:end -->"

#: What retires the entries a write orphans: in the engine's plan cache,
#: and in the view's generation-keyed documents.
ENGINE_SWEEP = (
    "a write moves the dependency key; the next evaluation, in either "
    "engine mode (`_refresh_dependencies`), retires every entry whose key "
    "names a dead generation (`discard_stale`) — rows, charge log and the "
    "transfer sums kept on the entry"
)
VIEW_SWEEP = (
    "the view's next document-cache miss (`_tag_cached`) retires every "
    "entry whose key names a dead generation (`discard_stale`)"
)
#: The row of the one map on the request path that is not a BoundedCache.
PREPARED = "prepared_plans"
PREPARED_ROW = [
    f"`{PREPARED}` — `SqlGenerator._stream_cache`, one generator per "
    "`XmlView` and (style, reduce, keep); a dict, and a compile cache like "
    "`decoders`",
    "node-index set of the subtree",
    "the view tree: its connected subtrees (233 for nine edges)",
    "nothing: a `StreamSpec` (plan, SQL text, fingerprint) depends on the "
    "view tree only",
]

#: name -> (owner, key, what invalidates an entry)
CACHES = {
    "plan_cache": (
        "`PlanResultCache` on `QueryEngine.cache` (during a sweep: its "
        "own `PlanCostCache`, entries without rows)",
        "(plan fingerprint, dependency key, cost model)",
        ENGINE_SWEEP,
    ),
    "node_cache": (
        "`NodeResultCache` on `QueryEngine.node_cache`",
        "sub-plan fingerprint (tables read stored beside the value; a "
        "value is kept from the fingerprint's second store on, the first "
        "leaves a marker)",
        "`_refresh_dependencies` diffs the table generations before each "
        "evaluation and retires the values reading a changed table (their "
        "markers stay, so the next computation is kept at once)",
    ),
    "estimates": (
        "`EstimateCache` on `CostEstimator.cache`, one estimator per "
        "session",
        "plan fingerprint",
        "nothing: a kept estimate outlives writes (re-costing is ROADMAP "
        "item 4); an evicted one is computed again from the live statistics",
    ),
    "instance_cache": (
        "`FragmentCache` on `XmlView.instance_cache`: the last tagging, "
        "cut into top-level groups (hit rate: groups copied, not re-tagged)",
        "(root tag, indent, the plan's stream decoders) — none for a shape "
        "that fails the group check",
        "nothing: each tagging replaces the last of its key, and a group is "
        "copied only where its rows are equal, type for type",
    ),
    "document_cache": (
        "`XmlDocumentCache` on `XmlView.document_cache`",
        "(root tag, indent, dependency key of every table the view reads)",
        "a write to any table of the view moves the key; " + VIEW_SWEEP,
    ),
    "decoders": (
        "`ComparatorLayout._decoders`",
        "stream shape (columns, sort keys, unit paths, their units' "
        "representatives and members)",
        "nothing: a decoder depends on the view tree only",
    ),
    "generated_code": (
        "`repro.relational.codegen.CODE`, one per process: the XML "
        "integration's decoders, tag steps and single-stream kernels, the "
        "batch engine's loop nests and the transfer charges",
        "per generator: a kernel by (view-tree shape, stream shape, form, "
        "indent, root tag or not); a pipeline by its source text "
        "(constants are arguments); a charge by (transfer model, column "
        "SQL types, row format, per-row or summed form)",
        "nothing: generated code depends on its key only, and holds no "
        "rows, no tree and no plan objects",
    ),
    "mutation_dedup": (
        "`Session._dedup` (sessions without a WAL)",
        "request id",
        "nothing",
    ),
    "views": (
        "`Session._views`",
        "RXL text",
        "nothing: a view depends on its text and the schema only (an "
        "evicted view is defined again)",
    ),
}


def record_workload(workload, seed):
    """Run one traced harness workload here; return, per cache name, the
    summed counters of every :class:`BoundedCache` it created."""
    # The module-level map exists before the hook; this process is
    # fresh, so its counters are this run's.
    created, generators = [CODE], []
    construct = BoundedCache.__init__
    construct_generator = SqlGenerator.__init__

    def recording(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        created.append(self)

    def recording_generator(self, *args, **kwargs):
        construct_generator(self, *args, **kwargs)
        generators.append(self)

    BoundedCache.__init__ = recording
    SqlGenerator.__init__ = recording_generator
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.run_one(run.parse_args(
                ["--workload", workload, "--trace", "1", "--seed", str(seed)]
            ))
    finally:
        BoundedCache.__init__ = construct
        SqlGenerator.__init__ = construct_generator
    if not result["correct"]:
        raise SystemExit(f"{workload}: the traced run reported failures")
    totals = {}
    for cache in created:
        stats = cache.stats()
        total = totals.setdefault(cache.name, {
            "hits": 0, "misses": 0, "peak_entries": 0,
            "max_entries": cache.max_entries, "max_bytes": cache.max_bytes,
        })
        total["hits"] += stats.hits
        total["misses"] += stats.misses
        total["peak_entries"] = max(total["peak_entries"], stats.peak_entries)
    # The memo never shrinks: the largest one's size now is the peak.
    totals[PREPARED] = max(len(g._stream_cache) for g in generators)
    return totals


def bound(total):
    parts = []
    if total["max_entries"] != float("inf"):
        parts.append(f"{total['max_entries']:,} entries")
    if total["max_bytes"] != float("inf"):
        parts.append(f"{total['max_bytes'] / 2 ** 20:,.0f} MiB")
    return " and ".join(parts)


def cell(total):
    if total is None:
        return "not built"
    requests = total["hits"] + total["misses"]
    rate = f"{total['hits'] / requests:.0%}" if requests else "no lookups"
    return f"{rate} · {total['peak_entries']:,}"


def table(by_workload):
    header = ["cache", "key", "bound", "what invalidates an entry",
              *WORKLOADS]
    rows = [header, ["---"] * len(header)]
    prepared = [by_workload[w].pop(PREPARED) for w in WORKLOADS]
    for name, (owner, key, invalidation) in CACHES.items():
        seen = [by_workload[w].get(name) for w in WORKLOADS]
        bounds = {bound(total) for total in seen if total is not None}
        rows.append([
            f"`{name}` — {owner}", key, " / ".join(sorted(bounds)),
            invalidation, *map(cell, seen),
        ])
    unknown = {n for totals in by_workload.values() for n in totals} - set(CACHES)
    if unknown:
        raise SystemExit(f"caches missing from CACHES: {sorted(unknown)}")
    rows.append(PREPARED_ROW + [f"not counted · {peak:,}" for peak in prepared])
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20010521)
    args = parser.parse_args(argv)
    if args.workload:
        print(json.dumps(record_workload(args.workload, args.seed)))
        return
    by_workload = {}
    for workload in WORKLOADS:     # one after another: the box has two cores
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        by_workload[workload] = json.loads(child.stdout.splitlines()[-1])
    design = REPO_ROOT / "DESIGN.md"
    text = design.read_text()
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    rendered = table(by_workload)
    design.write_text(f"{head}{BEGIN}\n{rendered}\n{END}{tail}")
    print(rendered)


if __name__ == "__main__":
    main(sys.argv[1:])
