"""One benchmark for the whole pipeline.

    python3 benchmarks/perf/run.py --seed 20010521            # all four
    python3 benchmarks/perf/run.py --seed 20010521 --trace    # + per layer
    python3 benchmarks/perf/run.py --workload plan_sweep --seed 7 \\
        --seconds 15 --trace 0                                # one, as CI does
    python3 benchmarks/perf/run.py --repeat 10 --out A.json   # a set of runs
    python3 benchmarks/perf/run.py --repeat 10 --check        # is it steady?

With ``--workload`` the process *is* the workload (its ``ru_maxrss`` is the
workload's peak RSS): it prints every metric as ``name workload value
unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without it the four workloads
run one after another, each in its own subprocess, never concurrently
(the box has two cores).  The exit code is non-zero when any op failed:
raised, was refused, or produced a wrong output.

``--trace`` adds the separate traced run that yields the per-layer
numbers; end-to-end numbers always come from the untraced run.  See
README.md in this directory.
"""

import argparse
import json
import subprocess
import sys

import perf_stats as stats
from perf_stats import worse_by

WORKLOADS = ("export_cold", "export_stream", "plan_sweep", "serve_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20010521)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="scale 1 and short runs, for the harness's tests")
    parser.add_argument("--repeat", type=int, default=1,
                        help="passes over the workloads, seeds counting up")
    parser.add_argument("--check", action="store_true",
                        help="two alternating sets of --repeat passes of "
                             "the same code must agree within the bounds")
    parser.add_argument("--out", help="append each pass to this JSON file")
    return parser.parse_args(argv)


# -- one workload, in this process --------------------------------------------


def run_one(args):
    """Run one workload here; print its metrics; return the result."""
    import perf_common as common
    import perf_layers
    import perf_workloads

    catalogue = common.catalogue()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else catalogue["run_seconds"]
    scale = common.SMOKE_SCALE if args.smoke else common.SCALE
    config = common.bench_config(args.seed, scale)
    name = args.workload

    if args.trace:
        spin = common.spin_ms()
        piece, values = perf_layers.run_traced(
            name, config, seconds, smoke=args.smoke)
        values["host.spin_ms"] = (spin + common.spin_ms()) / 2.0
        attempted, failed = piece.ops, min(piece.failed, piece.ops)
        piece.rec.write(common.RESULTS_DIR / f"trace-{name}.json")
        notes = {}
    else:
        measured = perf_workloads.run_workload(name, config, seconds)
        values = measured.end_to_end()
        attempted, failed = measured.attempted, measured.failed
        # Beside the metrics (which are at reference host speed): the
        # speed of the box, and the wall times as the clock read them.
        notes = {
            "host.spin_ms": f"{measured.spin_ms:.6g} ms",
            "raw_op_ms_p50":
                f"{stats.percentile(measured.raw_op_ms, 0.5):.6g} ms",
            "raw_op_ms_p90":
                f"{stats.percentile(measured.raw_op_ms, 0.9):.6g} ms",
            **measured.notes,
        }

    result = common.finish(values, args.trace, attempted, failed)
    for metric, entry in result["metrics"].items():
        print(f"{metric} {name} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac {name} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} ops)")
    for key, value in notes.items():
        if value not in (None, []) and key != "errors":
            print(f"# {key} {name} {value}")
    for error in notes.get("errors", []):
        print(f"# error {name} {error}")
    print(json.dumps(result))
    return result


# -- all workloads, each in a subprocess --------------------------------------


def run_child(args, workload, seed, trace):
    """One workload in its own subprocess; returns its result object, or a
    failed one when the child died without printing a result."""
    command = [sys.executable, __file__, "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"# error {workload} exited {child.returncode} without a result")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_pass(args, seed):
    """Every workload once (untraced, then traced when asked for)."""
    workloads = {}
    for workload in WORKLOADS:
        result = run_child(args, workload, seed, trace=0)
        if args.trace:
            traced = run_child(args, workload, seed, trace=1)
            result["per_layer"] = traced["metrics"]
            result["correct"] = result["correct"] and traced["correct"]
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
        workloads[workload] = result
        sys.stdout.flush()
    return {"seed": seed, "workloads": workloads}


def append_pass(path, run):
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {"runs": []}
    document["runs"].append(run)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def check_sets(first, second, catalogue):
    """Do two sets of runs of the same code agree?  For every cell: each
    set's spread must stay within the metric's bound (``setup_s`` is
    exempt: short, so repeated and given the widest bound instead) and the
    second median may not be worse than the first by more than the bound.
    Returns ``(report, agreed)``; the report also goes to SPREAD.json."""
    report = {}
    agreed = True
    for entry in catalogue["end_to_end"]:
        metric, bound = entry["name"], entry["bound"]
        for workload in WORKLOADS:
            a = stats.cell_values(first, workload, metric)
            b = stats.cell_values(second, workload, metric)
            spread = max(stats.spread(a), stats.spread(b))
            drift = worse_by(stats.median(a), stats.median(b),
                             entry["better"])
            ok = drift <= bound and (spread <= bound or metric == "setup_s")
            agreed = agreed and ok
            report[f"{metric}/{workload}"] = {
                "median_first": stats.median(a),
                "median_second": stats.median(b),
                "unit": entry["unit"], "spread": spread,
                "second_worse_by": drift, "bound": bound, "ok": ok,
            }
            print(f"{'ok  ' if ok else 'FAIL'} {metric} {workload} "
                  f"medians {stats.median(a):.6g} / {stats.median(b):.6g} "
                  f"{entry['unit']}, second worse by {drift:+.2%} of the "
                  f"first, spread {spread:.2%} of the median, "
                  f"bound {bound:.0%}")
    return report, agreed


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload:
        return 0 if run_one(args)["correct"] else 1

    sets = ([], [])
    for index in range(args.repeat * (2 if args.check else 1)):
        # --check alternates the two sets, so drift of the box hits both.
        which, offset = (index % 2, index // 2) if args.check else (0, index)
        run = run_pass(args, args.seed + offset)
        sets[which].append(run)
        if args.out:
            append_pass(args.out, run)
    correct = all(result["correct"] for runs in sets for run in runs
                  for result in run["workloads"].values())
    if not correct:
        print("# FAILED: an op raised, was refused, or gave a wrong output")
    if args.check and correct:
        import perf_common as common

        report, agreed = check_sets(*sets, common.catalogue())
        (common.PERF_DIR / "SPREAD.json").write_text(
            json.dumps({"runs_per_set": args.repeat, "cells": report},
                       indent=1) + "\n")
        correct = agreed
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
