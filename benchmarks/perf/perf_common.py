"""Shared pieces of the perf harness: inputs, statistics, metric catalogue.

Every workload runs over one database, ``sf3``: Configuration A scaled by
three (3,120 base rows; Query 1 / Query 2 each materialize to a ~129 KB
document of ~5.5 k element instances).  One cold export is then ~0.4 s —
far above interpreter noise — and its peak RSS is visibly above the
streaming path's.  ``--seed`` drives the TPC-H generator, the per-round op
shuffle and the mutation seeds; the measured program only ever sees the
generated inputs.

The metric catalogue (names, units, direction, bounds) lives in the root
``BENCHMARK.json`` and nowhere else: :func:`catalogue` reads it, and
:func:`finish` refuses a result whose metric names differ from it.
"""

import dataclasses
import json
import pathlib
import resource
import sys
import time

from perf_stats import mean, median, percentile, ratio  # noqa: F401

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
RESULTS_DIR = PERF_DIR / "results"

# The benchmark command names no path outside its own directory, so the
# runner finds the program's sources itself.
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.queries import QUERY_1, QUERY_2  # noqa: E402
from repro.relational.connection import Connection  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.tpch.configs import CONFIG_A, build_configuration  # noqa: E402
from repro.tpch.generator import TpchScale  # noqa: E402

QUERIES = {"q1": QUERY_1, "q2": QUERY_2}
SCALE = 3.0
SMOKE_SCALE = 1.0
#: The paper's per-subquery budget, in simulated ms ("no time was reported").
SWEEP_BUDGET_MS = 300_000.0


def bench_config(seed, scale=SCALE):
    return dataclasses.replace(
        CONFIG_A, scale=TpchScale().scaled(scale), seed=seed,
    )


def build_database(config):
    return build_configuration(config)[0]


def fresh_connection(database, config, **kwargs):
    return Connection(
        database, config.cost_model, config.transfer_model, **kwargs,
    )


def fresh_session(database, config, engine="batch", **session_kwargs):
    """A new Connection + Session over the prebuilt database: every cache
    (plan results, node results, decoded instances, documents) is empty."""
    return Session(
        fresh_connection(database, config, engine=engine), **session_kwargs,
    )


def peak_rss_mb():
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the speed of the box -----------------------------------------------------

#: This shared two-core box drifts between speed levels up to 1.9x apart
#: that last seconds to minutes, so raw wall times of the same code spread
#: by 25 % between runs.  Every timed region therefore has a fixed
#: pure-Python loop timed right before and after it, and its wall time is
#: reported *at reference host speed*: scaled by the reference duration of
#: that loop over the duration measured next to the region.  A change in
#: the code moves the scaled time exactly as it moves the raw one; a
#: change in the box (mostly) cancels.
SPIN_ITERATIONS = 100_000
SPIN_REFERENCE_MS = 5.0     # the loop on this box, undisturbed


def spin_ms():
    """The fixed pure-Python loop, timed: the machine's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += (i * i) % 7
    return (time.perf_counter() - start) * 1000.0


class HostSpeed:
    """Spin-loop marks that cut a timed loop into chunks (one op, one
    stretch of a sweep, one serve cycle); a wall time measured inside a
    chunk is scaled by the marks on either side of it."""

    def __init__(self):
        self.spins = [spin_ms()]

    @property
    def chunk(self):
        """Index of the chunk now open."""
        return len(self.spins) - 1

    def mark(self):
        """Close the open chunk (time the loop again)."""
        self.spins.append(spin_ms())

    def scaled(self, chunk, wall):
        """``wall`` measured inside closed chunk ``chunk``, at reference
        host speed."""
        local = (self.spins[chunk] + self.spins[chunk + 1]) / 2.0
        return wall * SPIN_REFERENCE_MS / local


# -- the metric catalogue ----------------------------------------------------


def catalogue():
    """``BENCHMARK.json`` as a dict (the one place metrics are declared)."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def finish(values, trace, attempted, failed):
    """The result object of one run: exactly the catalogue's end-to-end
    metrics (``trace`` off) or per-layer metrics (``trace`` on), each with
    its unit.  A missing or unknown name is a harness bug and raises."""
    declared = catalogue()["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    if trace:
        # Every traced run reports every per-layer metric; a layer the
        # workload does not exercise reads 0.
        values = {name: values.get(name, 0.0) for name in units}
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
