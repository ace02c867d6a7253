"""Regenerate the resilience ablation of DESIGN.md §8.

    PYTHONPATH=src python3 benchmarks/resilience_table.py           # rewrite it
    PYTHONPATH=src python3 benchmarks/resilience_table.py --print   # only print

ROADMAP's rule for everything beyond the paper's pipeline — it earns its
keep with a measured ablation or goes — applied to the resilience stack
(``resilience.py``, ``faults.py``).  The whole stack runs on
the simulated clock, so failed ops and simulated ``elapsed_total_ms``
repeat exactly: the table is generated, committed
(``benchmarks/results/resilience_ablation.txt``, and the same text between
the markers in DESIGN.md) and diffed by CI (≈ 45 s).

The workload is the harness's ``export_cold`` op mix (Query 1 and Query 2,
each under the greedy, the unified and the fully partitioned plan) on
Configuration A over a 3-replica pool with no result cache (a replay never
contacts the source): per seed one pool, reused for ``ROUNDS`` rounds so
that what it learned routes the next op, each round under fresh fault
seeds — 180 ops a row.  Two schedules say what is wrong with the source.
A row switches one mechanism off, through the ``Resilience`` it runs under
where that has a field and by this file's own patch where it has not
(``src/`` carries no switch for it),
and reports the ops that produced no document (``failed``: retries and
degradation exhausted; ``shed``: refused by admission), the ops that
needed degradation, and p50/p90/p99 of ``elapsed_total_ms`` over the ops
that completed.  Every completed op is checked byte-identical to the
fault-free document.

The rule: a mechanism stays iff, without it, more ops produce no document
or a percentile is worse by more than 2 % on either schedule.  The script
fails when a mechanism it can still switch off shows no such number.

Three mechanisms lost and were deleted with the table that convicted them
(``CONVICTED``).  Their rows cannot be measured on this tree any more;
they are carried in ``RECORDED`` as this script measured them at the last
commit that had them, ``8c7f217``, and every run checks that this tree's
"all on" row equals the "survivors only" row recorded there.  The version
of this file at ``b8c26a6`` still measures them: run it against
``8c7f217``'s sources (``PYTHONPATH=<checkout of 8c7f217>/src python3
<that file> --print``).
"""

import argparse
import contextlib
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(REPO_ROOT / "src"))

from repro.bench.queries import QUERY_1, QUERY_2  # noqa: E402
from repro.common.errors import (  # noqa: E402
    OverloadError,
    TransientConnectionError,
)
from repro.core import silkroute  # noqa: E402
from repro.core.options import ExecutionOptions  # noqa: E402
from repro.relational import resilience  # noqa: E402
from repro.relational.connection import Connection  # noqa: E402
from repro.relational.faults import FaultPolicy, RetryPolicy  # noqa: E402
from repro.relational.resilience import ReplicaPool, Resilience  # noqa: E402
from repro.tpch.configs import CONFIG_A, build_configuration  # noqa: E402

RESULT = REPO_ROOT / "benchmarks" / "results" / "resilience_ablation.txt"
BEGIN = "<!-- resilience-table:begin (benchmarks/resilience_table.py) -->"
END = "<!-- resilience-table:end -->"

QUERIES = {"q1": QUERY_1, "q2": QUERY_2}
#: One round: ``benchmarks/perf/perf_workloads.py``'s ``EXPORT_VARIANTS``.
VARIANTS = tuple(
    (qname, partition)
    for qname in QUERIES
    for partition in (None, "unified", "fully-partitioned")
)
SEEDS = range(10)
ROUNDS = 3
#: Per replica, the :class:`FaultPolicy` fields of each schedule.
SCHEDULES = {
    "slow + flapping": (
        {"latency_ms": 400.0}, {"error_rate": 0.5}, {"error_rate": 0.1},
    ),
    "hard-down + flapping": (
        {"error_rate": 1.0}, {"error_rate": 0.5}, {"error_rate": 0.1},
    ),
}
FAULT_TEXT = {"latency_ms": "latency {:g} ms", "error_rate": "error rate {:g}"}
#: What "all on" runs under, besides the pool and its faults: the
#: ``Resilience`` fields and the dispatch width.
ALL_ON = {"retry": RetryPolicy(), "hedge_ms": 50.0}
WORKERS = 4
COLUMNS = ("failed", "degraded", "shed", "p50", "p90", "p99")
WORSE = 1.02    # a percentile counts as worse beyond this factor


@contextlib.contextmanager
def patched(patches):
    """``(owner, name, value)`` attributes replaced for the duration."""
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in originals:
            setattr(owner, name, value)


def no_failover():
    """The retry loop asks the epoch for the next untried replica
    (failover) and so does the hedge step (its backup): answer "none
    left" to the first only, so a failed stream retries where it was."""
    pick, hedging = resilience.ReplicaEpoch.pick, []
    hedge = resilience.ResilientExecutor._hedge

    def pick_unless_failing_over(self, exclude=()):
        if exclude and not hedging:
            return None
        return pick(self, exclude)

    def marked_hedge(*args):
        hedging.append(True)
        try:
            return hedge(*args)
        finally:
            hedging.pop()

    return [(resilience.ReplicaEpoch, "pick", pick_unless_failing_over),
            (resilience.ResilientExecutor, "_hedge", marked_hedge)]


#: mechanism -> (how its row switches it off, the switch: ``Resilience``
#: fields overridden, patches)
MECHANISMS = {
    "retry": (
        "`retry=None` (failover and degradation spend retry attempts, so "
        "they go with it)", {"retry": None}, list),
    "failover": (
        "patch: `ReplicaEpoch.pick` offers the retry loop no other replica "
        "(the hedge step still gets its backup)", {}, no_failover),
    "hedging": ("`hedge_ms=None`", {"hedge_ms": None}, list),
    "health ranking": (
        "patch: `ReplicaPool.finish_epoch` folds nothing, so every epoch "
        "ranks 0, 1, 2", {},
        lambda: [(ReplicaPool, "finish_epoch", lambda self, epoch: None)]),
    "degradation": (
        "patch: `XmlView._finer_subtrees` finds no finer split", {},
        lambda: [(silkroute.XmlView, "_finer_subtrees",
                  lambda self, subtree, opts: None)]),
}

#: What this table convicted, deleted with it: row -> how the row was
#: switched at 8c7f217.  There "all on" included a slack stream admission
#: policy (16 slots + 16 queued, 60,000 ms deadline).
CONVICTED = {
    "− plan-fingerprint breaker": (
        "patch: `XmlView._dispatch_resilient` built no `CircuitBreaker` "
        "(one per dispatch, counting exhausted plan fingerprints)"),
    "− per-replica breaker": (
        "`ReplicaPool(unhealthy_after=inf)`: replicas ranked by consecutive "
        "failures and EWMA only, none ever denied"),
    "− stream admission": "`max_concurrent=None` instead of the slack policy",
    "+ binding stream admission": (
        "`max_concurrent=AdmissionPolicy(max_concurrent_streams=2, "
        "max_queued_streams=4, deadline_ms=2000.0)` instead of the slack "
        "policy — a row *with* the mechanism"),
    "survivors only": "the three `−` rows above at once",
}
AT_PARENT = "all on (at 8c7f217)"
#: Measured at 8c7f217 (see the module docstring): per schedule, the cells
#: of the "all on" row there and of the ``CONVICTED`` rows.
RECORDED = {
    "slow + flapping": {
        "all on": (0, 0, 0, 1688.1, 1746.9, 2176.4),
        "− plan-fingerprint breaker": (0, 0, 0, 1688.1, 1746.9, 2176.4),
        "− per-replica breaker": (0, 0, 0, 1688.1, 1746.9, 2176.4),
        "− stream admission": (0, 0, 0, 1688.1, 1746.9, 2176.4),
        "+ binding stream admission": (0, 0, 60, 1696.9, 1746.9, 2206.2),
        "survivors only": (0, 0, 0, 1688.1, 1746.9, 2176.4),
    },
    "hard-down + flapping": {
        "all on": (6, 4, 0, 1688.1, 1696.9, 1905.8),
        "− plan-fingerprint breaker": (6, 4, 0, 1688.1, 1696.9, 1905.8),
        "− per-replica breaker": (6, 3, 0, 1688.1, 1696.9, 1905.8),
        "− stream admission": (6, 4, 0, 1688.1, 1696.9, 1905.8),
        "+ binding stream admission": (0, 3, 60, 1696.9, 1696.9, 1905.8),
        "survivors only": (6, 3, 0, 1688.1, 1696.9, 1905.8),
    },
}


def run(schedule, database, estimator, clean, overrides=(), patches=list):
    """One row's cells: ``SEEDS`` pools x ``ROUNDS`` rounds x ``VARIANTS``
    under ``schedule``, the ``ALL_ON`` fields overridden by
    ``overrides``."""
    failed = degraded = shed = 0
    elapsed_ms = []
    policies = {**ALL_ON, **dict(overrides)}
    with patched(patches()):
        for seed in SEEDS:
            connection = Connection(
                database, CONFIG_A.cost_model, CONFIG_A.transfer_model)
            pool = ReplicaPool.from_connection(connection, 3)
            silk = silkroute.SilkRoute(connection, estimator=estimator)
            views = {q: silk.define_view(text) for q, text in QUERIES.items()}
            for round_ in range(ROUNDS):
                opts = ExecutionOptions(workers=WORKERS, resilience=Resilience(
                    replicas=pool, **policies, faults=[
                        FaultPolicy(seed=f"{seed}|{round_}|r{i}", **fields)
                        for i, fields in enumerate(schedule)]))
                for qname, partition in VARIANTS:
                    try:
                        result = views[qname].materialize(
                            partition, options=opts)
                    except TransientConnectionError:
                        failed += 1
                        continue
                    except OverloadError:
                        shed += 1
                        continue
                    if result.xml != clean[qname]:
                        raise SystemExit(f"{qname}/{partition}: wrong document")
                    degraded += bool(result.report.resilience.degraded_streams)
                    elapsed_ms.append(result.report.elapsed_total_ms)
    elapsed_ms.sort()

    def percentile(q):
        rank = min(len(elapsed_ms) - 1, int(q * (len(elapsed_ms) - 1) + 0.5))
        return round(elapsed_ms[rank], 1)

    return (failed, degraded, shed,
            percentile(0.5), percentile(0.9), percentile(0.99))


def worse(base, other):
    """The columns in which ``other`` is worse than ``base`` by the rule,
    as text ("no document 0 → 43"); empty when none is."""
    found = []
    lost, lost_other = base[0] + base[2], other[0] + other[2]
    if lost_other > lost:
        found.append(f"no document {lost} → {lost_other}")
    for name, before, after in zip(COLUMNS[3:], base[3:], other[3:]):
        if after > before * WORSE:
            found.append(
                f"{name} {before:,} → {after:,} (+{after / before - 1:.1%})")
    return ", ".join(found)


def measure():
    """``{schedule: {row: cells}}``: "all on" and the ``MECHANISMS`` rows
    of this tree, then the ``CONVICTED`` rows as ``RECORDED``, after
    checking that nothing else moved."""
    database, _, estimator = build_configuration(CONFIG_A)
    silk = silkroute.SilkRoute(
        Connection(database, CONFIG_A.cost_model, CONFIG_A.transfer_model),
        estimator=estimator)
    clean = {q: silk.define_view(text).materialize().xml
             for q, text in QUERIES.items()}
    tables = {}
    for title, schedule in SCHEDULES.items():
        args = (schedule, database, estimator, clean)
        rows = tables[title] = {"all on": run(*args)}
        for name, (_, *switch) in MECHANISMS.items():
            rows[f"− {name}"] = run(*args, *switch)
        recorded = RECORDED[title]
        if rows["all on"] != recorded["survivors only"]:
            raise SystemExit(
                f"{title}: all on {rows['all on']} is not the survivors-only "
                f"row recorded at 8c7f217 {recorded['survivors only']}")
        rows[AT_PARENT] = recorded["all on"]
        rows.update((name, recorded[name]) for name in CONVICTED)
    return tables


def render(tables):
    """The committed text — one table per schedule, then the verdicts —
    and the ``MECHANISMS`` the rule convicts."""
    out = []
    moved = {}      # row -> ["<schedule>: <what is worse>"]
    for title, rows in tables.items():
        policies = "; ".join(
            f"replica {i} " + ", ".join(
                FAULT_TEXT[key].format(value) for key, value in policy.items())
            for i, policy in enumerate(SCHEDULES[title]))
        ops = len(SEEDS) * ROUNDS * len(VARIANTS)
        out += [f"**{title}** — {policies} ({len(SEEDS)} seeds x {ROUNDS} "
                f"rounds x {len(VARIANTS)} ops = {ops} ops a row; "
                "simulated ms)", ""]
        header = ["configuration", *COLUMNS, "worse than its all-on row"]
        out += ["| " + " | ".join(header) + " |",
                "|" + " --- |" * len(header)]
        for name, cells in rows.items():
            at_parent = name in CONVICTED and AT_PARENT in rows
            found = worse(rows[AT_PARENT if at_parent else "all on"], cells)
            if found:
                moved.setdefault(name, []).append(f"{title}: {found}")
            out.append("| " + " | ".join([
                f"{name} (at 8c7f217)" if at_parent else name,
                *(f"{c:,}" for c in cells), found or "—",
            ]) + " |")
        out.append("")
    out += ["| mechanism | its row switches it off by | verdict |",
            "| --- | --- | --- |"]
    for name, (how, *_) in MECHANISMS.items():
        numbers = moved.get(f"− {name}")
        out.append(f"| {name} | {how} | " + (
            "**stays** — " + "; ".join(numbers) if numbers else
            "**goes** — nothing is worse without it on either schedule")
            + " |")
    for name, how in CONVICTED.items():
        numbers = "; ".join(moved.get(name, ["nothing is worse"]))
        if name.startswith("−"):
            out.append(f"| {name[2:]} | {how} | **deleted** — without it: "
                       f"{numbers} on either schedule |")
        elif name.startswith("+"):
            out.append(f"| {name[2:]} | {how} | **deleted** — with it: "
                       f"{numbers} |")
    return "\n".join(out), [
        name for name in MECHANISMS if f"− {name}" not in moved]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--print", action="store_true", dest="print_only",
                        help="print the table; rewrite nothing")
    args = parser.parse_args(argv)
    rendered, convicted = render(measure())
    print(rendered)
    if convicted:
        raise SystemExit(f"still in src/ with nothing to show: {convicted}")
    if args.print_only:
        return
    RESULT.write_text(rendered + "\n")
    design = REPO_ROOT / "DESIGN.md"
    head, rest = design.read_text().split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    design.write_text(f"{head}{BEGIN}\n{rendered}\n{END}{tail}")


if __name__ == "__main__":
    main(sys.argv[1:])
