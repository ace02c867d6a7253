"""Regenerate the reachability table of ``src/`` (ROADMAP item 11).

    PYTHONPATH=src python3 benchmarks/reachability.py           # rewrite it
    PYTHONPATH=src python3 benchmarks/reachability.py --print   # only print

Every function under ``src/repro`` is entered by a workload, a paper
figure, a soak or an example, or it has a reason to stay — or it goes.
This script runs the roots below, each in a child process of a temporary
copy of the repository, with a stdlib profile hook (``sys.setprofile``
and ``threading.setprofile``; ``coverage`` is not a dependency) that every
Python process started there installs from a ``sitecustomize`` module on
``PYTHONPATH`` — the crash soak's children too.  A process appends each
``src/repro`` function it enters for the first time to its own file with
one unbuffered write, so a child the soak kills with SIGKILL still
reports.  Then it lists, per module, every ``def`` never entered whose
enclosing ``def`` (if any) was, with its line count and its reason in
``KEEP``, and writes ``benchmarks/results/reachability.txt``, which CI
regenerates and diffs.

The roots: the four harness workloads at ``--smoke`` sizes, untraced and
traced; the ten paper benches and the memory, recovery, fault and chaos
soaks (``--benchmark-disable``: pytest-benchmark's fixture switches the
profile hook off around the timed body); ``resilience_table.py``; the
trace-smoke job's ``python -m repro trace q1``; ``python -m repro mutate
--rows 1``; every script of ``examples/``.

A function never entered stays only for one of these reasons, the first
word of its ``KEEP`` entry:

- ``paper``: it is a function of the paper's Secs. 3-5 (the section);
- ``oracle``: a test compares against it (the test);
- ``entry``: it is the entry point of a capability that stays (the CLI
  command, or the ``Server``/``ServeClient`` method);
- ``safety``: it validates input from outside the program or handles an
  error (what it guards);
- ``harness``: the frozen harness calls it (``benchmarks/perf/<file>:<line>``).

The script fails when a function never entered has no ``KEEP`` entry
(new unreached code is deleted or given its reason) or when an entry
names no function; an entry whose function is now entered only prints a
note.  ≈ 2.5 min on a 2-vCPU box.
"""

import argparse
import ast
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT = REPO_ROOT / "benchmarks" / "results" / "reachability.txt"

WORKLOADS = ("export_cold", "export_stream", "plan_sweep", "serve_mixed")
BENCHES = (
    "test_fig13_query1", "test_fig14_query2", "test_fig15_config_b",
    "test_fig18_greedy_plans", "test_headline_claims", "test_sec2_table",
    "test_table1_configs", "test_estimate_requests", "test_ablation",
    "test_threshold_sensitivity",
    "test_memory", "test_recovery", "test_faults", "test_replicas",
)
SEED = 20010521
#: name -> argv, run from the temporary copy's root.
ROOTS = {
    **{f"harness {name} trace {trace}": [
        "benchmarks/perf/run.py", "--workload", name, "--smoke",
        "--seed", str(SEED), "--trace", str(trace)]
       for name in WORKLOADS for trace in (0, 1)},
    "benches": ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--benchmark-disable",
                *(f"benchmarks/{name}.py" for name in BENCHES)],
    "resilience table": ["benchmarks/resilience_table.py", "--print"],
    "repro trace q1": ["-m", "repro", "trace", "q1", "--out", "trace.json",
                       "--metrics"],
    "repro mutate": ["-m", "repro", "mutate", "--rows", "1"],
    **{f"example {path.stem}": [f"examples/{path.name}"]
       for path in sorted((REPO_ROOT / "examples").glob("*.py"))},
}

#: Installed in every Python process of the run (``sitecustomize``).
HOOK = '''\
import os, sys, threading

def _install(out=os.environ.get("REACHABILITY_OUT")):
    if not out:
        return
    src = os.environ["REACHABILITY_SRC"]
    fd = os.open(os.path.join(out, f"{os.getpid()}.txt"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    seen = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code       # kept: its id is never reused
                if code.co_filename.startswith(src):
                    os.write(fd, f"{code.co_filename}\\t{code.co_firstlineno}"
                                 f"\\t{code.co_name}\\n".encode())

    sys.setprofile(hook)
    threading.setprofile(hook)

_install()
'''

REASONS = ("paper", "oracle", "entry", "safety", "harness")

#: module -> {qualified name -> "<reason> <why>"}: why a function no root
#: enters stays in ``src/``.
KEEP = {
    "repro/bench/experiments.py": {
        "format_registry": "entry `repro experiments`",
    },
    "repro/cli.py": {
        "_run_serve": "entry `repro serve`",
        "_run_remote_query": "entry `repro query --connect`",
    },
    "repro/common/errors.py": {
        "RxlSyntaxError.__init__":
            "safety: places an RXL syntax error at its line and column",
        "tag_request":
            "safety: stamps tenant and request id on an error crossing "
            "the server",
        "StaleGenerationError.__init__":
            "safety: the error of a sweep that saw a write mid-run",
        "OverloadError.__init__": "safety: the error of a shed request",
        "BackendMismatchError.__init__":
            "safety: the error of SQLite disagreeing with the oracle",
    },
    "repro/core/partition.py": {
        "Subtree.kept_children":
            "paper Sec. 3.4: the sibling test of `partition_requirements`",
    },
    "repro/core/permissible.py": {
        "partition_requirements":
            "paper Sec. 3.4: the SQL features a plan needs",
        "is_permissible": "paper Sec. 3.4: can the source run the plan",
        "permissible_partitions":
            "paper Sec. 3.4: the plans a source description permits",
        "restrict_greedy_plan":
            "paper Sec. 3.4: the greedy family clipped to the source",
    },
    "repro/core/reduction.py": {
        "suggest_keep":
            "paper Sec. 3.5: the data-size heuristic that prohibits a merge",
    },
    "repro/core/sqlgen.py": {
        "StreamSpec.sql_with":
            "paper Sec. 3, footnote 1: a plan's SQL with the WITH clause",
        "StreamSpec.uses_outer_join":
            "paper Sec. 3.4: checked against the source description",
        "StreamSpec.uses_union":
            "paper Sec. 3.4: checked against the source description",
    },
    "repro/core/viewtree.py": {
        "Stv.__repr__": "entry `repro tree` (draws Skolem-term arguments)",
        "ViewTree.render": "entry `repro tree`",
        "_Builder._simplify_entries":
            "paper Sec. 3.1: Skolem arguments dropped by functional "
            "dependencies",
        "_Builder._scope_fds": "paper Sec. 3.1: the dependencies it uses",
        "_flip": "safety: reads an RXL condition written literal-first",
    },
    "repro/obs/export.py": {
        "_jsonable":
            "safety: exports a span attribute JSON cannot encode as text",
    },
    "repro/obs/metrics.py": {
        "_NullMetrics.gauge":
            "safety: a view publishes its caches' gauges into the null "
            "registry of an `ObsOptions(metrics=False)` session",
    },
    "repro/obs/tracer.py": {
        "Span.event": "safety: records a retry, failover or degradation",
        "SpanEvent.__init__": "safety: the event `Span.event` records",
        "Tracer.event": "safety: records a retry, failover or degradation",
    },
    "repro/relational/algebra.py": {
        "Comparison.evaluate":
            "oracle: the reference filter, tests/test_batch_engine.py::"
            "TestPipelinesDifferential::test_null_operands_never_match",
        "And.evaluate": "oracle: as `Comparison.evaluate`",
        "_eval_expr": "oracle: as `Comparison.evaluate`",
        "walk": "paper Sec. 3.4: behind `count_operators`",
        "count_operators":
            "paper Sec. 3.4: behind `StreamSpec.uses_outer_join`",
    },
    "repro/relational/cache.py": {
        "CacheEntry.replay_raises":
            "safety: a replay that would overrun the budget times out "
            "where the run did",
    },
    "repro/relational/connection.py": {
        "SourceDescription.check_plan_features":
            "paper Sec. 3.4: refuses a plan the source cannot run",
        "TupleCursor.exhausted":
            "oracle: how tests/test_streaming.py::TestExecuteIter holds a "
            "cursor to the eager run",
        "TupleCursor.__enter__":
            "safety: `with` releases an abandoned cursor's rows",
        "TupleCursor.__exit__": "safety: as `TupleCursor.__enter__`",
    },
    "repro/relational/database.py": {
        "Database.delete": "entry `repro mutate --op delete`",
    },
    "repro/relational/engine.py": {
        "IterResult.rows_examined":
            "oracle: how tests/test_batch_engine.py::TestStreamIdentity "
            "holds a cursor's charges to the eager run's",
        "IterResult.breakdown": "oracle: as `IterResult.rows_examined`",
        "_empty_key":
            "oracle: the reference interpreter's key of a join on no "
            "column",
        "QueryEngine._stream_filter":
            "oracle: the reference filter, tests/test_batch_engine.py::"
            "TestPipelinesDifferential",
    },
    "repro/relational/sqltext.py": {
        "render_sql_with":
            "paper Sec. 3, footnote 1: shared node queries as WITH clauses",
    },
    "repro/relational/table.py": {
        "Table.delete": "entry `repro mutate --op delete`",
        "Table.plan_delete": "entry `repro mutate --op delete`",
    },
    "repro/rxl/ast.py": {
        "LiteralValue.__str__":
            "safety: the RXL validation error of a literal-only condition",
        "RxlCondition.__str__": "safety: as `LiteralValue.__str__`",
    },
    "repro/rxl/parser.py": {
        "_Parser.error": "safety: the RXL syntax error",
    },
    "repro/serve/client.py": {
        "ServeClient.ping": "entry `ServeClient.ping`",
        "ServeClient.stats": "entry `ServeClient.stats`",
        "ServeClient.explain": "entry `ServeClient.explain`",
    },
    "repro/serve/protocol.py": {
        "options_to_wire":
            "entry `ServeClient.query`/`explain` with options",
        "error_to_wire": "safety: a failed request's error on the wire",
        "ServeError.__init__": "safety: a wire error raised in the client",
    },
    "repro/serve/server.py": {
        "Server.register_query": "entry `Server.register_query`",
        "Server.register_tenant": "entry `Server.register_tenant`",
        "Server.queries": "entry `Server.queries`",
        "Server.draining": "entry `Server.draining`",
        "Server.undrain": "entry `Server.undrain`",
        "Server.explain": "entry `Server.explain`",
        "Server.serve_forever": "entry `repro serve`",
        "Server.__enter__": "entry `Server` as a context manager",
        "Server.__exit__": "entry `Server` as a context manager",
        "_Handler._drain_oversized":
            "safety: skips an oversized request frame",
    },
    "repro/xmlgen/kernel.py": {
        "_resolve":
            "safety: a decoded row whose `L` tags name no unit, "
            "tests/test_xmlgen.py::TestDecodeStream",
    },
    "repro/xmlgen/serializer.py": {
        "format_value":
            "oracle: the reference writer's DECIMAL and DATE text, "
            "tests/test_xmlgen_kernel.py",
    },
    "repro/xmlgen/streams.py": {
        "Instance.values":
            "oracle: the input of `ComparatorLayout.instance_key`, "
            "tests/test_xmlgen.py::TestDecodeStream",
        "ComparatorLayout.instance_key":
            "oracle: the key the generated decoders reproduce, "
            "tests/test_xmlgen_kernel.py",
        "reference_decode":
            "oracle: the decoder's definition, "
            "tests/test_xmlgen_kernel.py::TestDifferential",
    },
    "repro/xmlql/parser.py": {
        "_Parser.error": "safety: the XML-QL syntax error",
    },
}


def functions(src):
    """``{(module, firstlineno, name): (qualname, lines, enclosing)}`` for
    every ``def`` under ``src/repro``; ``firstlineno`` counts decorators,
    as the code object's does, and ``enclosing`` is the key of the
    nearest enclosing ``def`` (None at module or class level)."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).as_posix()

        def visit(node, prefix, enclosing):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(
                        d.lineno for d in child.decorator_list)])
                    key = (module, first, child.name)
                    qualname = prefix + child.name
                    found[key] = (qualname, child.end_lineno - first + 1,
                                  enclosing)
                    visit(child, qualname + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", enclosing)
                else:
                    visit(child, prefix, enclosing)

        visit(ast.parse(path.read_text()), "", None)
    return found


def run_roots(copy, out, roots):
    """Run ``roots`` (name -> argv) in ``copy`` with the hook; returns the
    names of the roots that failed."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(copy / "hook"), str(copy / "src")]),
        REACHABILITY_OUT=str(out),
        REACHABILITY_SRC=str(copy / "src" / "repro") + os.sep,
    )
    failed = []
    for name, argv in roots.items():
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, *argv], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        print(f"# {name}: exit {run.returncode}, "
              f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
        if run.returncode:
            print(run.stderr[-2000:], file=sys.stderr)
            failed.append(name)
    return failed


def entered(copy, out):
    """The ``(module, firstlineno, name)`` of every function entered."""
    prefix = str(copy / "src") + os.sep
    keys = set()
    for path in out.iterdir():
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            keys.add((filename[len(prefix):].replace(os.sep, "/"),
                      int(first), name))
    return keys


def measure(roots=ROOTS):
    """``(functions, entered keys, roots that failed, lines of src/)`` of
    ``roots`` run over a temporary copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(REPO_ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".benchmarks"))
        (copy / "hook").mkdir()
        (copy / "hook" / "sitecustomize.py").write_text(HOOK)
        out = pathlib.Path(tmp) / "entered"
        out.mkdir()
        failed = run_roots(copy, out, roots)
        # The copy's own sources: the tree may change while the roots run.
        found, keys = functions(copy / "src"), entered(copy, out)
        total = sum(len(path.read_text().splitlines())
                    for path in (copy / "src").rglob("*.py"))
    return found, keys, failed, total


def unreached(found, keys):
    """``{module: [(qualname, lines)]}``: every ``def`` never entered whose
    enclosing ``def`` was (or which has none), in source order."""
    table = {}
    for key, (qualname, lines, enclosing) in sorted(found.items()):
        if key in keys or (enclosing is not None and enclosing not in keys):
            continue
        table.setdefault(key[0], []).append((qualname, lines))
    return table


def reason_of(why):
    """The reason word a ``KEEP`` entry starts with (None if unknown)."""
    word = re.match(r"[a-z]*", why).group()
    return word if word in REASONS else None


def render(table, total):
    """The committed text, and the rows without a reason to stay."""
    out, missing = [], []
    kept = {reason: [0, 0] for reason in REASONS}
    for module, rows in table.items():
        out += ["", f"## {module}", "", "| function | lines | keep reason |",
                "| --- | --- | --- |"]
        for qualname, lines in rows:
            why = KEEP.get(module, {}).get(qualname)
            if why is None:
                missing.append(f"{module}: {qualname} ({lines} lines)")
                why = "**none: delete it or give it a reason**"
            else:
                kept[reason_of(why)][0] += 1
                kept[reason_of(why)][1] += lines
            out.append(f"| `{qualname}` | {lines} | {why} |")
    count = sum(len(rows) for rows in table.values())
    unreached_lines = sum(n for rows in table.values() for _, n in rows)
    head = [
        "# Functions of src/repro no root enters, and why each stays",
        "",
        "Generated by benchmarks/reachability.py; the roots and the rule "
        "are in its docstring.",
        "",
        f"src/: {total:,} lines; never entered: {count} functions, "
        f"{unreached_lines:,} lines",
        "kept unreached, by reason: " + ", ".join(
            f"{reason} {n} ({n_lines:,} lines)"
            for reason, (n, n_lines) in kept.items()),
    ]
    return "\n".join(head + out) + "\n", missing


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--print", action="store_true", dest="print_only",
                        help="print the table; rewrite nothing")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    found, keys, failed, total = measure()
    table = unreached(found, keys)
    text, missing = render(table, total)
    print(text)
    listed = {(module, qualname) for module, rows in table.items()
              for qualname, _ in rows}
    named = {(module, qualname) for module, entries in KEEP.items()
             for qualname in entries}
    defined = {(key[0], qualname) for key, (qualname, _, _) in found.items()}
    for module, qualname in sorted(named & defined - listed):
        print(f"note: {module}: {qualname} is entered now; its KEEP entry "
              "can go", file=sys.stderr)
    print(f"# {time.perf_counter() - start:.0f} s", file=sys.stderr)
    problems = [f"root failed: {name}" for name in failed]
    problems += [f"no reason to stay: {row}" for row in missing]
    problems += [f"KEEP names no function: {module}: {qualname}"
                 for module, qualname in sorted(named - defined)]
    problems += [f"KEEP reason is not one of {REASONS}: {module}: {qualname}"
                 for module, entries in KEEP.items()
                 for qualname, why in entries.items() if not reason_of(why)]
    if problems:
        raise SystemExit("\n".join(problems))
    if not args.print_only:
        RESULT.write_text(text)


if __name__ == "__main__":
    main(sys.argv[1:])
