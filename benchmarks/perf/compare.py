"""Compare two sets of runs: ``python3 benchmarks/perf/compare.py A.json B.json``.

``A.json`` (the base, e.g. the parent commit) and ``B.json`` (the change)
are files written by ``run.py --out``; run *i* of A is paired with run
*i* of B, so take them alternately (see README.md).  One row per
(end-to-end metric, workload) with both medians, their quartiles, the
bound the benchmark fixed, and a verdict:

* ``improved`` — B wins at least nine tenths of the pairs and the medians
  differ by more than the spread between A's own runs;
* ``unchanged`` — B's median is within the bound of A's;
* ``unresolved`` — the run-to-run spread is wider than the bound, so
  "unchanged" cannot be told from "regressed" (unless every run of B is
  on one side of every run of A);
* ``regressed`` — B's median is worse than A's by more than the bound.

Every ratio is printed with its base.  The exit code is 1 when any cell
regressed or any op of B failed.
"""

import json
import pathlib
import sys

import perf_stats as stats

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path):
    with open(path) as handle:
        return json.load(handle)["runs"]


def failed_ops(runs):
    return sum(result["failed"] for run in runs
               for result in run["workloads"].values())


def compare(runs_a, runs_b, catalogue):
    """Rows ``(metric, workload, unit, quartiles A, quartiles B, worse_by,
    bound, verdict)``, one per cell."""
    pairs = min(len(runs_a), len(runs_b))
    rows = []
    for entry in catalogue["end_to_end"]:
        metric = entry["name"]
        for workload in (w["name"] for w in catalogue["workloads"]):
            a = stats.cell_values(runs_a[:pairs], workload, metric)
            b = stats.cell_values(runs_b[:pairs], workload, metric)
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            rows.append((
                metric, workload, entry["unit"], qa, qb,
                stats.worse_by(qa[1], qb[1], entry["better"]),
                entry["bound"],
                stats.verdict(a, b, entry["better"], entry["bound"]),
            ))
    return rows


def render(rows, pairs):
    lines = [f"{pairs} pairs of runs; A is the base of every ratio",
             f"{'metric':<14} {'workload':<14} {'A median [q1..q3]':<34} "
             f"{'B median [q1..q3]':<34} {'B worse by':<26} bound  verdict"]
    for metric, workload, unit, qa, qb, worse, bound, outcome in rows:
        def cell(q):
            return f"{q[1]:.5g} [{q[0]:.5g}..{q[2]:.5g}] {unit}"
        change = f"{worse:+.2%} of {qa[1]:.5g} {unit}"
        lines.append(
            f"{metric:<14} {workload:<14} {cell(qa):<34} {cell(qb):<34} "
            f"{change:<26} {bound:<6.0%} {outcome}")
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    rows = compare(runs_a, runs_b, json.loads(BENCHMARK.read_text()))
    print(render(rows, min(len(runs_a), len(runs_b))))
    failed = failed_ops(runs_b)
    if failed:
        print(f"B failed {failed} ops (A: {failed_ops(runs_a)}): a gain "
              "does not count when more ops fail than at the base")
    regressed = any(row[-1] == "regressed" for row in rows)
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
