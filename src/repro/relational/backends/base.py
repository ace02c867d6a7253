"""Backends: a real engine the generated SQL can be checked on.

The paper's middle-ware sends every partition's SQL to a commercial RDBMS
over JDBC.  This repo simulates that source end to end — the
:class:`~repro.relational.engine.QueryEngine` evaluates plans with an
analytical cost model, so timings are deterministic and experiments are
reproducible bit for bit — and no request ever leaves it.  A
:class:`Backend` is a *target* the same SQL can additionally be run on
(:class:`~repro.relational.backends.sqlite.SqliteBackend`: a real SQLite
instance loaded from the same :class:`Database`), and
:func:`cross_validate` is the one comparison: the simulated engine runs
each stream first and stays the *oracle*, the backend's rows are aligned
against it row for row (a disagreement raises
:class:`~repro.common.errors.BackendMismatchError` instead of silently
preferring either side) and its wall clock is measured.

Both are things a caller builds and calls — the calibration layer
(:mod:`repro.relational.calibrate`), the SQLite bench, the crash soak,
the property tests and the CLI's ``--backend sqlite`` check — never an
option a query carries: what a request returns, charges and caches
cannot depend on whether anybody also asked SQLite.
"""

from repro.common.errors import BackendMismatchError
from repro.common.ordering import sort_key
from repro.relational.algebra import Sort


class Backend:
    """One real engine generated SQL can be executed on.

    A backend implements ``execute_sql(plan, sql)`` — run ``sql`` (the
    generated dialect, pre-adaptation) for ``plan`` and return ``(rows,
    wall_ms)``, the rows converted back to the plan's column types — and
    ``close()``, which releases its real resources and is idempotent."""

    #: Short stable name, as errors and reports spell it.
    name = "backend"


def cross_validate(engine, specs, backend, repeats=1):
    """Run every :class:`~repro.core.sqlgen.StreamSpec` of ``specs`` on
    ``engine`` (a :class:`~repro.relational.engine.QueryEngine`, the
    oracle, first) and ``repeats`` times on ``backend``; return
    ``[(spec, ExecutionResult, walls_ms)]`` with one measured wall per
    backend run.

    The first backend run is the validation pass: its rows are aligned
    with the oracle's (:func:`align_backend_rows`), and a difference
    raises :class:`~repro.common.errors.BackendMismatchError` carrying
    the stream's label and SQL.  Later runs only add wall samples — SQLite
    statements at test scale run in microseconds, where one sample is
    mostly noise."""
    checked = []
    for spec in specs:
        result = engine.execute(spec.plan)
        walls = []
        for run in range(max(1, repeats)):
            rows, wall_ms = backend.execute_sql(spec.plan, spec.sql)
            if run == 0:
                align_backend_rows(spec.plan, result.rows, rows,
                                   backend.name, label=spec.label,
                                   sql=spec.sql)
            walls.append(wall_ms)
        checked.append((spec, result, walls))
    return checked


def align_backend_rows(plan, oracle_rows, backend_rows, backend_name,
                       label=None, sql=None):
    """Cross-validate a real backend's rows against the simulated oracle.

    The generated SQL's ORDER BY does not totally order the result (ties
    beyond the sort key may legally come back in any order from a real
    engine), so equality is checked in two parts: the two results must be
    the same *bag* of rows, and — when the plan's root is a
    :class:`~repro.relational.algebra.Sort` — the backend's order must be
    non-decreasing on the declared sort keys.  Returns the oracle rows
    (the canonical order every downstream byte-identity guarantee is
    stated against); raises
    :class:`~repro.common.errors.BackendMismatchError` on any difference.
    """
    if len(backend_rows) != len(oracle_rows):
        raise BackendMismatchError(
            f"{backend_name} returned {len(backend_rows)} rows, "
            f"simulated oracle {len(oracle_rows)}",
            backend=backend_name, stream_label=label, sql=sql,
            detail="row-count mismatch",
        )
    expected = sorted(oracle_rows, key=sort_key)
    received = sorted(backend_rows, key=sort_key)
    for index, (want, got) in enumerate(zip(expected, received)):
        if want != got:
            raise BackendMismatchError(
                f"{backend_name} rows disagree with the simulated oracle "
                f"(first difference at sorted row {index}: "
                f"expected {want!r}, got {got!r})",
                backend=backend_name, stream_label=label, sql=sql,
                detail=f"row {index}: {want!r} != {got!r}",
            )
    if isinstance(plan, Sort) and plan.keys:
        names = list(plan.column_names())
        positions = [names.index(k) for k in plan.keys]
        previous = None
        for index, row in enumerate(backend_rows):
            key = sort_key(tuple(row[p] for p in positions))
            if previous is not None and key < previous:
                raise BackendMismatchError(
                    f"{backend_name} violated the plan's ORDER BY at "
                    f"row {index}",
                    backend=backend_name, stream_label=label, sql=sql,
                    detail=f"row {index} sorts before its predecessor",
                )
            previous = key
    return oracle_rows
