"""Vectorized operator kernels: the batch engine's compiled plan bodies.

:func:`compile_plan` lowers a relational-algebra plan into a tree of
closures, one per operator, each mapping the runtime charge accumulator to
a :class:`~repro.relational.batch.Batch`.  Everything that the tuple
engine re-derives per execution — predicate dispatch, projection plans,
join key extractors, column positions, outer-join nesting depth,
fingerprints — is resolved once here, at compile time; the closures then
run tight C-level loops (listcomps, ``zip``, ``sorted``, ``dict``) over
whole batches.

The batch engine is the *identical twin* of the engine's Volcano
interpreter (the ``_stream_*`` generators behind ``engine="tuple"``), not
an approximation.  These two are the only implementations of the operator
set.  Every kernel performs the same logical work in the same order and
hands the same counts to the same
:class:`~repro.relational.engine.CostModel` method — the formula is that
method, stated nowhere else — so the charge log — every ``(label, ms,
rows)`` triple, in order — is bit-identical to the interpreter's.  The
load-bearing details:

* sub-plan sharing: each compiled node whose fingerprint recurs in the
  plan checks the per-execution memo and charges the same ``rescan`` cost
  on hits, in the same recursion order (left before right);
* the outer-join re-evaluation penalty is charged on a *running-total
  delta* around the right side's evaluation, snapshot at the same points;
* union charges count rows after duplicate elimination, distinct uses
  first-occurrence order (``dict.fromkeys``), and sorts reproduce the
  ``NULLS FIRST`` relation of :class:`~repro.common.ordering.NoneFirst`
  exactly — including its ordering of mixed-type columns by type name —
  with one stable sort on a composite key built column-wise
  (:func:`~repro.common.ordering.column_keys`);
* sort cost samples the *input-order* rows through the engine's
  deterministic row-width estimator, so both engines charge the same
  width to the bit.
"""

from operator import itemgetter

from repro.common.errors import ExecutionError, QueryError
from repro.common.ordering import column_keys
from repro.relational import algebra
from repro.relational.algebra import (
    Scan,
    Filter,
    Project,
    Distinct,
    InnerJoin,
    LeftOuterJoin,
    OuterUnion,
    Sort,
    ColumnRef,
    Literal,
)
from repro.relational.batch import Batch
from repro.relational.dependencies import plan_tables
from repro.relational.types import average_row_width


def _key_plan(positions):
    """Compile join-key extraction: ``(extractor, single)``.

    Multi-column keys use :func:`operator.itemgetter` (a tuple per row, as
    before); single-column keys skip the tuple entirely — the scalar is the
    key and ``is None`` replaces the per-element NULL scan.
    """
    if not positions:
        return _EMPTY_KEY, False
    if len(positions) == 1:
        return itemgetter(positions[0]), True
    return itemgetter(*positions), False


def _EMPTY_KEY(row):
    return ()


def _hash_index(rows, key_get, single):
    """Hash-build ``rows`` into {key: [rows]}, skipping NULL keys."""
    index = {}
    setdefault = index.setdefault
    if single:
        for row in rows:
            key = key_get(row)
            if key is not None:
                setdefault(key, []).append(row)
    else:
        for row in rows:
            key = key_get(row)
            if None not in key:
                setdefault(key, []).append(row)
    return index


def compile_filter_kernel(predicate, positions):
    """Compile a filter predicate to a ``rows -> matching rows`` kernel.

    The comparison chain is inlined into a single list comprehension, so
    the selection runs as one loop with no per-row Python call.  Predicate
    shapes the expression compiler rejects fall back to per-row
    :meth:`~repro.relational.algebra.Comparison.evaluate`.
    """
    try:
        condition, consts = algebra.predicate_source(
            predicate, positions, var="r"
        )
    except QueryError:
        return lambda rows: [
            r for r in rows if predicate.evaluate(r, positions)
        ]
    return algebra.compile_source(
        f"lambda rows: [r for r in rows if {condition}]", consts
    )


def _shared_fingerprints(plan):
    """Fingerprints occurring more than once in ``plan`` — the sub-plans the
    optimizer's common-subexpression sharing will re-read, and so the only
    ones an execution has to keep (in its memo) after their first
    evaluation."""
    counts = {}
    for op in algebra.walk(plan):
        fp = op.fingerprint()
        counts[fp] = counts.get(fp, 0) + 1
    return frozenset(fp for fp, n in counts.items() if n > 1)


def compile_plan(plan, engine):
    """Lower ``plan`` into its kernel, ``run(charges) -> Batch``, bound to
    ``engine``'s database and cost model (fixed for the engine's lifetime;
    a run prices its charges on ``charges.model``, the same object)."""
    return _PlanCompiler(engine, _shared_fingerprints(plan)).compile(plan)


class _PlanCompiler:
    """Per-engine lowering context.

    Kernels split into two halves.  The *charge* half — child evaluation
    order, memo checks, running-total deltas, and one call per operator
    of the ``charges.model`` method that is its formula (the execution's
    :class:`~repro.relational.engine.CostModel`) — always
    runs live, so the simulated clock and charge log are bit-identical to
    the tuple engine's on every execution.  The *data* half — the actual
    row work — is deterministic given the sub-plan fingerprint and the
    generations of the base tables the sub-plan reads, so its result
    :class:`Batch` is offered to the engine's
    :class:`~repro.relational.cache.NodeResultCache` under that footprint:
    kept from its second computation on and shared across executions, so
    the scans, node queries and join prefixes sweep partitions have in
    common touch no rows again, while a result nothing re-reads dies with
    the kernel call that consumed it.

    Kernels reach that cache through the execution (``charges.cached`` /
    ``charges.keep``), not the engine: :meth:`QueryEngine.execute` hands
    them the engine's, a cursor (:meth:`QueryEngine.execute_iter`) none,
    so one compiled plan serves both and a cursor's intermediates die with
    the kernel call that consumed them.
    """

    def __init__(self, engine, shared):
        self.engine = engine
        #: Fingerprints occurring more than once in the plan being compiled.
        self.shared = shared

    def compile(self, op):
        """Compile one operator.  A sub-plan occurring more than once in
        the plan is wrapped in the per-execution memo check (the
        optimizer's common-subexpression reuse, as in the interpreter's
        ``_stream``); any other node's result is held by nothing but its
        parent's kernel call — ``rescan`` can only ever be charged on a
        second encounter, so the charge log is the same either way."""
        fresh = self._fresh(op)
        fingerprint = op.fingerprint()
        if fingerprint not in self.shared:
            return fresh

        def run(charges, _fp=fingerprint, _fresh=fresh):
            memo = charges.memo
            batch = memo.get(_fp)
            if batch is not None:
                n = batch.length
                charges.charge("rescan", charges.model.rescan_ms(n), n)
                return batch
            batch = _fresh(charges)
            memo[_fp] = batch
            return batch

        return run

    def _fresh(self, op):
        """The kernel of ``op`` proper, handed what every kernel keys its
        node-cache entry by: the fingerprint and the tables read."""
        try:
            kernel = self._KERNELS[type(op)]
        except KeyError:
            raise ExecutionError(f"cannot compile operator {op!r}") from None
        return kernel(self, op, op.fingerprint(), plan_tables(op))

    # -- kernels ------------------------------------------------------------

    def _scan(self, op, fp, tables):
        database = self.engine.database
        table_name = op.table_schema.name
        arity = len(op.columns())

        def fresh(charges):
            batch = charges.cached(fp)
            if batch is None:
                rows = list(database.table(table_name).rows)
                batch = Batch.from_rows(rows, arity)
                charges.keep(fp, batch, tables)
            n = batch.length
            charges.charge("scan", charges.model.scan_ms(n), n)
            return batch

        return fresh

    def _filter(self, op, fp, tables):
        child = self.compile(op.child)
        kernel = compile_filter_kernel(op.predicate, op.child.positions())
        arity = len(op.columns())

        def fresh(charges):
            batch = child(charges)
            n = batch.length
            result = charges.cached(fp)
            if result is None:
                result = Batch.from_rows(kernel(batch.rows()), arity)
                charges.keep(fp, result, tables)
            charges.charge("filter", charges.model.filter_ms(n), n)
            return result

        return fresh

    def _project(self, op, fp, tables):
        child = self.compile(op.child)
        positions = op.child.positions()
        plan = []
        for item in op.items:
            if isinstance(item.expr, ColumnRef):
                plan.append((True, positions[item.expr.name]))
            elif isinstance(item.expr, Literal):
                plan.append((False, item.expr.value))
            else:
                raise ExecutionError(f"unsupported projection {item.expr!r}")

        def fresh(charges):
            batch = child(charges)
            n = batch.length
            result = charges.cached(fp)
            if result is None:
                # Column references are shared (zero copy when the child is
                # column-backed); constant columns are built in one C-level
                # repeat instead of a per-row tuple rebuild.
                columns = [
                    batch.col(p) if is_col else [p] * n for is_col, p in plan
                ]
                result = Batch.from_columns(columns, n)
                charges.keep(fp, result, tables)
            charges.charge("project", charges.model.project_ms(n), n)
            return result

        return fresh

    def _distinct(self, op, fp, tables):
        child = self.compile(op.child)
        arity = len(op.columns())

        def fresh(charges):
            batch = child(charges)
            n = batch.length
            result = charges.cached(fp)
            if result is None:
                # dict.fromkeys is the C spelling of first-occurrence dedup
                # — the same output order as the tuple engine's seen-set
                # loop.
                out = list(dict.fromkeys(batch.rows()))
                result = Batch.from_rows(out, arity)
                charges.keep(fp, result, tables)
            charges.charge("distinct", charges.model.distinct_ms(n), n)
            return result

        return fresh

    def _inner_join(self, op, fp, tables):
        left = self.compile(op.left)
        right = self.compile(op.right)
        left_pos = op.left.positions()
        right_pos = op.right.positions()
        build_get, build_single = _key_plan(
            [right_pos[r] for _, r in op.equalities]
        )
        probe_get, probe_single = _key_plan(
            [left_pos[l] for l, _ in op.equalities]
        )
        arity = len(op.columns())

        def fresh(charges):
            left_batch = left(charges)
            right_batch = right(charges)
            n_left = left_batch.length
            n_right = right_batch.length
            result = charges.cached(fp)
            if result is None:
                left_rows = left_batch.rows()
                right_rows = right_batch.rows()
                index = _hash_index(right_rows, build_get, build_single)
                out = []
                append = out.append
                lookup = index.get
                if probe_single:
                    for row in left_rows:
                        key = probe_get(row)
                        if key is None:
                            continue
                        for match in lookup(key, ()):
                            append(row + match)
                else:
                    for row in left_rows:
                        key = probe_get(row)
                        if None in key:
                            continue
                        for match in lookup(key, ()):
                            append(row + match)
                result = Batch.from_rows(out, arity)
                charges.keep(fp, result, tables)
            charges.charge(
                "join",
                charges.model.join_ms(n_right, n_left, result.length),
                n_left + n_right,
            )
            return result

        return fresh

    def _outer_join(self, op, fp, tables):
        left = self.compile(op.left)
        right = self.compile(op.right)
        left_pos = op.left.positions()
        right_pos = op.right.positions()
        null_pad = (None,) * len(op.right.columns())
        branch_plans = []
        for branch in op.branches:
            build_get, build_single = _key_plan(
                [right_pos[r] for _, r in branch.equalities]
            )
            tag_position = (
                right_pos[branch.tag_column]
                if branch.tag_column is not None else None
            )
            probe_get, probe_single = _key_plan(
                [left_pos[l] for l, _ in branch.equalities]
            )
            branch_plans.append(
                (build_get, build_single, tag_position, branch.tag_value,
                 probe_get, probe_single)
            )
        # 'Optimizer stress' is plan-structural: resolved at compile time.
        penalized = self.engine.cost_model.reevaluates(op.right)
        arity = len(op.columns())
        n_branches = len(op.branches)

        def fresh(charges):
            left_batch = left(charges)
            # The re-evaluation penalty is a running-total delta around the
            # right side, with the same snapshot points as the tuple engine.
            right_start_ms = charges.total_ms
            right_batch = right(charges)
            right_cost_ms = charges.total_ms - right_start_ms
            n_left = left_batch.length
            n_right = right_batch.length

            cached = charges.cached(fp)
            if cached is None:
                left_rows = left_batch.rows()
                right_rows = right_batch.rows()
                branch_indexes = []
                build_work = 0
                for (build_get, build_single, tag_position, tag_value,
                     probe_get, probe_single) in branch_plans:
                    if tag_position is None:
                        candidates = right_rows
                    else:
                        candidates = [
                            row for row in right_rows
                            if row[tag_position] == tag_value
                        ]
                    index = _hash_index(candidates, build_get, build_single)
                    build_work += sum(
                        len(bucket) for bucket in index.values()
                    )
                    branch_indexes.append((probe_get, probe_single, index))

                out = []
                append = out.append
                for row in left_rows:
                    matched = False
                    for probe_get, probe_single, index in branch_indexes:
                        key = probe_get(row)
                        if (key is None) if probe_single else (None in key):
                            continue
                        for match in index.get(key, ()):
                            append(row + match)
                            matched = True
                    if not matched:
                        append(row + null_pad)
                cached = (Batch.from_rows(out, arity), build_work)
                charges.keep(fp, cached, tables)
            result, build_work = cached

            charges.charge(
                "outer_join",
                charges.model.join_ms(
                    build_work, n_left * n_branches, result.length
                ),
                n_left + n_right,
            )
            if penalized:
                charges.charge(
                    "outer_join_reevaluation",
                    charges.model.reevaluation_ms(n_left, right_cost_ms),
                )
            return result

        return fresh

    def _union(self, op, fp, tables):
        out_columns = op.column_names()
        width = len(out_columns)
        compiled_inputs = []
        for child in op.inputs:
            mapping = {
                name: i for i, name in enumerate(child.column_names())
            }
            slots = tuple(mapping.get(name) for name in out_columns)
            compiled_inputs.append((self.compile(child), slots))
        distinct = op.distinct

        def fresh(charges):
            # Children are always evaluated (in input order) so their
            # charges land; only this node's own column assembly is cached.
            child_batches = [
                child_run(charges) for child_run, _ in compiled_inputs
            ]
            out = charges.cached(fp)
            if out is None:
                columns = [[] for _ in range(width)]
                total = 0
                for batch, (_, slots) in zip(
                    child_batches, compiled_inputs
                ):
                    n = batch.length
                    total += n
                    for slot, column in zip(slots, columns):
                        if slot is None:
                            column.extend([None] * n)
                        else:
                            column.extend(batch.col(slot))
                out = Batch.from_columns(columns, total)
                if distinct:
                    deduped = list(dict.fromkeys(out.rows()))
                    out = Batch.from_rows(deduped, width)
                charges.keep(fp, out, tables)
            n_out = out.length
            charges.charge("union", charges.model.union_ms(n_out), n_out)
            return out

        return fresh

    def _sort(self, op, fp, tables):
        child = self.compile(op.child)
        positions = op.child.positions()
        key_positions = [positions[key] for key in op.keys]
        child_columns = op.child.columns()
        arity = len(op.columns())

        def fresh(charges):
            batch = child(charges)
            n = batch.length
            result = charges.cached(fp)
            if result is None:
                rows = batch.rows()
                keys = key_positions and n and column_keys(
                    [batch.col(p) for p in key_positions])
                if keys:
                    # One sort on the composite key: lexicographic by
                    # (k1, k2, ...) with ties in input order — exactly the
                    # tuple engine's sorted(key=sort_key(...)).
                    order = sorted(range(n), key=keys.__getitem__)
                    out = list(map(rows.__getitem__, order))
                else:
                    out = list(rows)
                result = Batch.from_rows(out, arity)
                charges.keep(fp, result, tables)

            if n:
                # Width sampling sees the *input-order* rows, as in the
                # tuple engine.
                row_bytes = average_row_width(child_columns, batch.rows())
                charges.charge("sort", charges.model.sort_ms(n, row_bytes), n)
            return result

        return fresh

    _KERNELS = {
        Scan: _scan, Filter: _filter, Project: _project,
        Distinct: _distinct, InnerJoin: _inner_join,
        LeftOuterJoin: _outer_join, OuterUnion: _union, Sort: _sort,
    }
