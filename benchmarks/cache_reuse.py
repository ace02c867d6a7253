"""Regenerate the sub-plan reuse table of DESIGN.md §6.

    PYTHONPATH=src python3 benchmarks/cache_reuse.py            # rewrite it
    PYTHONPATH=src python3 benchmarks/cache_reuse.py --print    # only print

What a sweep's two relational caches hold, against what is read again.  Each
of the perf harness's four sweep variants (Query 1 / Query 2, non-reduced /
reduced, all 512 plans, on its ``sf3`` database) runs twice on a fresh
session:

* **keep all** — the policy before admission control: the node cache keeps a
  sub-plan result on its first computation and the plan cache keeps every
  distinct stream's rows (a ``PlanResultCache``);
* **admit 2nd** — what ships: the node cache keeps a result from its second
  computation on, and the sweep's own ``PlanCostCache`` keeps charge logs,
  row counts and transfer sums.

Both runs must report the same timings (checked).  The counts are the
program's own and repeat exactly; a *cell* is one value of one row of a
kept sub-plan result.
"""

import argparse
import dataclasses
import gc
import pathlib
import sys
from collections import Counter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import sweep as sweep_module  # noqa: E402
from repro.bench.queries import QUERY_1, QUERY_2  # noqa: E402
from repro.relational.cache import (  # noqa: E402
    SEEN,
    BoundedCache,
    NodeResultCache,
    PlanResultCache,
)
from repro.relational.connection import Connection  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.tpch.configs import CONFIG_A, build_database  # noqa: E402
from repro.tpch.generator import TpchScale  # noqa: E402

BEGIN = "<!-- cache-reuse:begin (benchmarks/cache_reuse.py) -->"
END = "<!-- cache-reuse:end -->"
#: The perf harness's database and sweep variants (benchmarks/perf).
SCALE, SEED = 3.0, 20010521
VARIANTS = [("Q1", QUERY_1, False), ("Q1", QUERY_1, True),
            ("Q2", QUERY_2, False), ("Q2", QUERY_2, True)]


def cells(batch):
    """Cells of a node-cache value, a ``Batch``."""
    return batch.length * batch.arity


class ReuseProbe(NodeResultCache):
    """A node cache that also counts, per sub-plan fingerprint, how often
    its result was computed and how often read, and the result's cells.
    ``keep_all`` keeps a result on its first computation — the policy
    before admission."""

    def __init__(self, keep_all=False):
        super().__init__()
        self.keep_all = keep_all
        self.cells = {}
        self.computed = Counter()
        self.read = Counter()

    def get(self, fingerprint):
        value = super().get(fingerprint)
        if value is not None:
            self.read[fingerprint] += 1
        return value

    def store(self, fingerprint, value):
        self.cells[fingerprint] = cells(value)
        self.computed[fingerprint] += 1
        if self.keep_all:
            return BoundedCache.store(self, fingerprint, value)
        return super().store(fingerprint, value)

    def reuse(self):
        """The counts of one run, as a dict."""
        kept = [fp for fp, value in self.items() if value is not SEEN]
        read = [fp for fp in kept if self.read[fp]]
        stats = self.stats()
        return {
            "distinct": len(self.computed),
            "computations": sum(self.computed.values()),
            "cells_computed": sum(
                n * self.cells[fp] for fp, n in self.computed.items()),
            "kept": len(kept),
            "read": len(read),
            "cells_kept": sum(self.cells[fp] for fp in kept),
            "cells_read": sum(self.cells[fp] for fp in read),
            "hit_rate": stats.hit_rate,
        }


def probe_sweep(session, query, keep_all=False, **options):
    """Sweep ``query`` on ``session`` under one policy, the probe as the
    node cache the sweep builds; returns ``(sweep result, reuse counts)``
    with the plan cache's entry count and bytes among the counts."""
    probe = ReuseProbe(keep_all)

    def pinned(generations):
        probe.generations = generations
        return probe

    build = sweep_module.NodeResultCache
    sweep_module.NodeResultCache = pinned
    try:
        result = session.sweep(
            query, cache=PlanResultCache() if keep_all else True, **options)
    finally:
        sweep_module.NodeResultCache = build
    counts = probe.reuse()
    counts["plan_entries"] = result.stats["sweep_cache"]["entries"]
    counts["plan_bytes"] = result.stats["sweep_cache"]["current_bytes"]
    return result.sweep, counts


def measure():
    config = dataclasses.replace(
        CONFIG_A, scale=TpchScale().scaled(SCALE), seed=SEED)
    database = build_database(config)
    rows = []
    for name, query, reduce in VARIANTS:
        timings = []
        for keep_all in (True, False):
            gc.collect()
            session = Session(Connection(
                database, config.cost_model, config.transfer_model))
            sweep, counts = probe_sweep(
                session, query, keep_all, reduce=reduce,
                budget_ms=config.subquery_budget_ms)
            timings.append(sweep.timings)
            rows.append((
                f"{name} {'reduced' if reduce else 'non-reduced'}",
                "keep all" if keep_all else "admit 2nd", counts,
            ))
        if timings[0] != timings[1]:
            raise SystemExit(f"{name} reduce={reduce}: the timings differ")
    return rows


def table(rows):
    header = ["sweep (512 plans)", "policy", "sub-plans: distinct · computed",
              "node entries kept", "ever read again", "cells kept",
              "cells of those read", "cells computed", "node hit rate",
              "plan entries · bytes"]
    lines = [header, ["---"] * len(header)]
    for sweep, policy, c in rows:
        lines.append([
            sweep, policy, f"{c['distinct']:,} · {c['computations']:,}",
            f"{c['kept']:,}", f"{c['read']:,}", f"{c['cells_kept']:,}",
            f"{c['cells_read']:,}", f"{c['cells_computed']:,}",
            f"{c['hit_rate']:.1%}",
            f"{c['plan_entries']:,} · {c['plan_bytes']:,.0f}",
        ])
    return "\n".join("| " + " | ".join(line) + " |" for line in lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--print", action="store_true", dest="print_only",
                        help="print the table, leave DESIGN.md alone")
    args = parser.parse_args(argv)
    rendered = table(measure())
    print(rendered)
    if not args.print_only:
        design = REPO_ROOT / "DESIGN.md"
        head, rest = design.read_text().split(BEGIN, 1)
        _, tail = rest.split(END, 1)
        design.write_text(f"{head}{BEGIN}\n{rendered}\n{END}{tail}")


if __name__ == "__main__":
    main(sys.argv[1:])
