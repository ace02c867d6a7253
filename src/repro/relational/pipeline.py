"""Generated pipelines: the batch engine's plan bodies.

:func:`evaluate` cuts a plan into *pipelines* and *breakers* and runs them.
A pipeline is a chain of operators that pass one row at a time — a scan or
an earlier result as its source, then inner-join probes, outer-join
probes, filters and projections — and runs as one generated Python loop
nest (written into a :class:`~repro.relational.codegen.Source`) that
builds only the columns its output keeps.  A chain breaks at ``Distinct``,
``Sort`` and ``OuterUnion`` (the breakers, run here as plain Python over
whole :class:`~repro.relational.batch.Batch` objects), at the build side
of a join and at every sub-plan whose fingerprint recurs in the plan (the
optimizer's common-subexpression sharing: evaluated once per execution,
kept in the memo, re-read at ``rescan`` cost).  A join whose build side is
a bare ``Scan`` probes the table's own hash index
(:meth:`Table.index_on <repro.relational.table.Table.index_on>`, dropped by
every write) instead of hashing the table again.

The batch engine is the *identical twin* of the engine's Volcano
interpreter (the ``_stream_*`` generators behind ``engine="tuple"``): the
same rows, and the same :class:`~repro.relational.engine.CostModel`
method called with the same counts in the same order, so the charge log —
every ``(label, ms, rows)`` triple — is bit-identical.  Each operator's
charge is an *event*, listed in the interpreter's (post-) order.  A
pipeline runs the events whose counts are known before its loop (sources,
table scans, build sides — the running total around an outer join's build
side is read live, for the re-evaluation penalty), then the loop, which
returns what it counted, then the rest.  A chain is also cut where an
event that needs the loop's counts would come before a build side that
must be evaluated, so that order can always be kept.

During a sweep, each pipeline's and breaker's result but a sort's is
offered to the sweep's :class:`~repro.relational.cache.NodeResultCache`
under its fingerprint (through the execution: ``charges.cached`` /
``charges.keep``; any other execution passes none), with the loop's
counts on the batch, so a hit charges what the computation would have.
Generated code is kept process-wide in :data:`~repro.relational.codegen.CODE`,
keyed by its own source text: constants (literals, predicates the
compiler cannot inline) are arguments, so the code holds no values, no
rows and no plan objects, plans that differ only in a literal share it,
and a fresh session running a known shape compiles nothing.
"""

from types import NoneType

from repro.common.errors import ExecutionError
from repro.common.ordering import column_keys, in_key_order, rows_are_keys
from repro.relational import algebra, codegen
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

_FUSED = (Scan, Filter, Project, InnerJoin, LeftOuterJoin)


def evaluate(plan, database, charges):
    """Run ``plan`` over ``database``, charging ``charges``; return its
    result :class:`Batch`."""
    return lower(plan).run(database, charges)


def lower(plan):
    """``plan`` cut into its pipelines and breakers: the root unit, with
    ``run(database, charges) -> Batch``.  Each operator keeps its lowering
    (plans are immutable)."""
    program = getattr(plan, "_program", None)
    if program is None:
        program = plan._program = _Lowering(
            algebra.shared_fingerprints(plan)).unit(plan)
    return program


def sort_rows(batch, key_positions, kinds, constant=(), metrics=None):
    """The rows of ``batch`` in a new list, sorted by the columns at
    ``key_positions``, whose value types are ``kinds`` (per key column,
    the types it may hold, ``NoneType`` for a NULL); ``constant`` are
    positions known to hold one value throughout.  The rows themselves
    are sorted where that is the order
    (:func:`~repro.common.ordering.rows_are_keys`).  Otherwise, unless a
    key column may mix value types, they are checked first
    (:func:`~repro.common.ordering.in_key_order`): rows the pipelines
    emitted in key order are copied as they are (the input may be a
    batch a sweep's node cache keeps), which is what a stable sort returns,
    ties included.  Any other input sorts its row indexes once, on a
    composite key built column-wise
    (:func:`~repro.common.ordering.column_keys`) — lexicographic with ties
    in input order, exactly the tuple engine's ``sorted(key=sort_key(...))``,
    NULLS FIRST and mixed types by type name included.  ``metrics``, when
    given, counts the two as ``sort.presorted`` and ``sort.resorted``."""
    rows = batch.rows()
    if rows_are_keys(batch.arity, key_positions, kinds, constant):
        return sorted(rows)
    varying = [(p, types) for p, types in zip(key_positions, kinds)
               if p not in constant]
    if len(rows) < 2 or (
            all(len(types) - (NoneType in types) <= 1 for _, types in varying)
            and in_key_order(rows, [p for p, _ in varying])):
        event, rows = "sort.presorted", list(rows)
    else:
        # Two rows or more, out of order or with a key column of mixed
        # types, which is kept: the keys are never None here.
        columns = batch.columns()
        keys = column_keys([columns[p] for p in key_positions], kinds)
        event, rows = "sort.resorted", list(map(
            rows.__getitem__, sorted(range(len(rows)), key=keys.__getitem__)))
    if metrics is not None:
        metrics.inc(event)
    return rows


#: Every column's facts a plan keeps, once: a few per base column.
_FACTS = {}


def column_facts(plan, memo=None):
    """What ``plan`` tells of the values of each of its output columns,
    in order: ``(types, sources, constant)`` — the types the plan itself
    puts there (a literal's; ``NoneType`` where a left outer join pads or
    an outer-union input lacks the column), the base columns ``(table,
    column)`` whose values reach it, and whether it is one literal
    throughout.  ``memo`` (by operator id) serves a sub-plan the plan
    reads twice; without one they are kept on ``plan`` (plans are
    immutable), each shared with every plan that has it, for the sorts
    and transfer charges that read them on every run.  An operator it
    does not know raises
    :class:`~repro.common.errors.ExecutionError`: a sort above it has no
    facts, and no fallback that would scan its rows."""
    if memo is None:
        facts = getattr(plan, "_facts", None)
        if facts is None:
            facts = plan._facts = tuple(
                _FACTS.setdefault(fact, fact)
                for fact in column_facts(plan, {}))
        return facts
    facts = memo.get(id(plan))
    if facts is not None:
        return facts
    if isinstance(plan, Scan):
        facts = [((), (column.source,), False) for column in plan.columns()]
    elif isinstance(plan, (Filter, Distinct, Sort)):
        facts = column_facts(plan.child, memo)
    elif isinstance(plan, Project):
        # A projection admits a column reference or a literal only.
        below = column_facts(plan.child, memo)
        positions = plan.child.positions()
        facts = [
            below[positions[item.expr.name]]
            if isinstance(item.expr, ColumnRef)
            else ((type(item.expr.value),), (), True)
            for item in plan.items
        ]
    elif isinstance(plan, InnerJoin):
        facts = column_facts(plan.left, memo) + column_facts(plan.right, memo)
    elif isinstance(plan, LeftOuterJoin):
        facts = column_facts(plan.left, memo) + [
            (types if NoneType in types else (*types, NoneType), sources,
             False)
            for types, sources, _ in column_facts(plan.right, memo)]
    elif isinstance(plan, OuterUnion):
        merged = {name: ({}, {}) for name in plan.column_names()}
        for child in plan.inputs:
            found = dict(zip(child.column_names(), column_facts(child, memo)))
            for name, (types, sources) in merged.items():
                if name in found:
                    types.update(dict.fromkeys(found[name][0]))
                    sources.update(dict.fromkeys(found[name][1]))
                else:
                    types[NoneType] = None
        facts = [(tuple(types), tuple(sources), False)
                 for types, sources in merged.values()]
    else:
        raise ExecutionError(f"cannot tell the value types of {plan!r}")
    memo[id(plan)] = facts
    return facts


# -- units ----------------------------------------------------------------


class _Shared:
    """A sub-plan occurring more than once in the plan: evaluated once per
    execution into the memo, re-read from it at ``rescan`` cost."""

    def __init__(self, fingerprint, unit):
        self.fingerprint = fingerprint
        self.unit = unit

    def run(self, database, charges):
        memo = charges.memo
        batch = memo.get(self.fingerprint)
        if batch is not None:
            n = batch.length
            charges.charge("rescan", charges.model.rescan_ms(n), n)
            return batch
        batch = memo[self.fingerprint] = self.unit.run(database, charges)
        return batch


class _Scan:
    """A bare scan as a unit (a shared one, or a plan that is one): the
    table's rows, copied."""

    def __init__(self, op):
        self.fingerprint = op.fingerprint()
        self.table = op.table_schema.name
        self.arity = len(op.columns())

    def run(self, database, charges):
        rows = database.table(self.table).rows
        n = len(rows)
        result = charges.cached(self.fingerprint)
        if result is None:
            result = Batch.from_rows(list(rows), self.arity)
            charges.keep(self.fingerprint, result)
        charges.charge("scan", charges.model.scan_ms(n), n)
        return result


class _Breaker:
    """A pipeline breaker over the results of its input units."""

    def __init__(self, op, inputs):
        self.fingerprint = op.fingerprint()
        self.arity = len(op.columns())
        self.inputs = inputs

    def run(self, database, charges):
        # Inputs always run, in order, so their charges land; only this
        # node's own work is cached.
        batches = [unit.run(database, charges) for unit in self.inputs]
        result = charges.cached(self.fingerprint)
        if result is None:
            result = self.compute(batches)
            charges.keep(self.fingerprint, result)
        self.charge(charges, batches, result)
        return result


class _Distinct(_Breaker):
    def compute(self, batches):
        # dict.fromkeys is first-occurrence dedup in C: the tuple engine's
        # seen-set order.
        return Batch.from_rows(list(dict.fromkeys(batches[0].rows())),
                               self.arity)

    def charge(self, charges, batches, result):
        n = batches[0].length
        charges.charge("distinct", charges.model.distinct_ms(n), n)


class _Union(_Breaker):
    def __init__(self, op, inputs):
        super().__init__(op, inputs)
        out_columns = op.column_names()
        self.slots = []
        for child in op.inputs:
            mapping = {name: i for i, name in enumerate(child.column_names())}
            self.slots.append(tuple(mapping.get(name) for name in out_columns))
        self.distinct = op.distinct

    def compute(self, batches):
        columns = [[] for _ in range(self.arity)]
        total = 0
        for batch, slots in zip(batches, self.slots):
            n = batch.length
            total += n
            values = batch.columns()
            for slot, column in zip(slots, columns):
                if slot is None:
                    column.extend([None] * n)
                else:
                    column.extend(values[slot])
        out = Batch.from_columns(columns, total)
        if self.distinct:
            out = Batch.from_rows(list(dict.fromkeys(out.rows())), self.arity)
        return out

    def charge(self, charges, batches, result):
        n = result.length
        charges.charge("union", charges.model.union_ms(n), n)


class _Sort:
    """A breaker not offered to the node cache: in every plan the view
    generator builds the sort is the root, whose result is the plan
    cache's to keep and is never looked up again by fingerprint.  It
    charges before it sorts: the charge needs only the input, and is the
    same whether :func:`sort_rows` finds the input in order or sorts it.
    Each column's value types are read from the tables its values come
    from (:func:`column_facts`, :meth:`Table.value_types
    <repro.relational.table.Table.value_types>`), never from the rows:
    they pick the sort's path, say whether its check may compare raw
    tuples, and spare the width sample the fixed-width columns that hold
    no NULL.  The execution's metrics count checked and re-sorted
    inputs."""

    def __init__(self, op, inputs):
        self.inputs = inputs
        self.arity = len(op.columns())
        positions = op.child.positions()
        self.key_positions = [positions[key] for key in op.keys]
        self.facts = column_facts(op.child)
        self.constant = tuple(
            p for p, (_, _, constant) in enumerate(self.facts) if constant)
        self.child_columns = op.child.columns()

    def kinds(self, database):
        """Per input column, the value types it may hold over
        ``database``."""
        table = database.table
        return [
            set(types).union(*[table(name).value_types(column)
                               for name, column in sources])
            for types, sources, _ in self.facts
        ]

    def run(self, database, charges):
        batch = self.inputs[0].run(database, charges)
        n = batch.length
        kinds = self.kinds(database)
        if n:
            # The width is sampled from the *input-order* rows, as in the
            # tuple engine; a plan-cache entry of a sorted plan weighs it.
            row_bytes = charges.sort_row_bytes = batch.average_width(
                self.child_columns, [NoneType in types for types in kinds])
            charges.charge("sort", charges.model.sort_ms(n, row_bytes), n)
        return Batch.from_rows(
            sort_rows(batch, self.key_positions,
                      [kinds[p] for p in self.key_positions], self.constant,
                      charges.metrics),
            self.arity)


class _Pipeline:
    """One generated loop nest and the events that charge it.

    ``events`` are the fused operators' charges and the input units'
    evaluations in the interpreter's order, over ``n_slots`` count slots
    (a row count, or the running-total delta around an outer join's build
    side).  The first ``split`` events need nothing the loop counts and
    run before it; what the loop counted fills the slots in ``counted``.
    ``builds`` say what each probe reads: a table's index, or an input
    unit's batch indexed (per branch and tag for an outer join).  A
    ``kernel`` of None is a chain of renaming projections: the source's
    rows are the result.
    """

    def __init__(self, op, key, source, builds, events, split, counted,
                 n_slots, kernel, consts):
        self.key = key
        self.arity = len(op.columns())
        self.source = source
        self.builds = builds
        self.events = events
        self.split = split
        self.counted = counted
        self.n_slots = n_slots
        self.kernel = kernel
        self.consts = consts

    def run(self, database, charges):
        counts = [0] * self.n_slots
        batches = {}
        events = self.events
        for event in events[:self.split]:
            _charge(event, counts, batches, database, charges)
        result = charges.cached(self.key)
        if result is None:
            result = self._compute(database, batches)
            charges.keep(self.key, result)
        for slot, value in zip(self.counted, result.counts):
            counts[slot] = value
        for event in events[self.split:]:
            _charge(event, counts, batches, database, charges)
        return result

    def _compute(self, database, batches):
        kind, what = self.source
        rows = (database.table(what).rows if kind == "table"
                else batches[what].rows())
        if self.kernel is None:
            return Batch.from_rows(rows, self.arity)
        args = [rows]
        build_work = []
        for kind, what, positions, *branches in self.builds:
            if kind == "index":
                args.append(database.table(what).index_on(positions))
                continue
            build = batches[what]
            if kind == "hash":
                args.append(build.index_on(positions)[0])
                continue
            # An outer join: one index per branch, over the build rows its
            # tag accepts; the work is every row indexed.
            work = 0
            for positions, tag in branches:
                index, indexed = build.index_on(positions, tag)
                work += indexed
                args.append(index)
            build_work.append(work)
        out, *counted = self.kernel(*args, *self.consts)
        counted = (*build_work, *counted)
        if len(counted) < len(self.counted):
            counted += (len(out),)
        return Batch.from_rows(out, self.arity, counted)


def _charge(event, counts, batches, database, charges):
    """Run one event: evaluate an input unit, or charge one fused
    operator the formula of its :class:`CostModel` method over its
    counts."""
    kind = event[0]
    model = charges.model
    if kind == "unit":
        _, unit, slot, delta_slot = event
        start = charges.total_ms
        batch = batches[slot] = unit.run(database, charges)
        counts[slot] = batch.length
        if delta_slot is not None:
            counts[delta_slot] = charges.total_ms - start
    elif kind == "scan":
        _, table, slot = event
        n = counts[slot] = len(database.table(table).rows)
        charges.charge("scan", model.scan_ms(n), n)
    elif kind == "filter":
        n = counts[event[1]]
        charges.charge("filter", model.filter_ms(n), n)
    elif kind == "project":
        n = counts[event[1]]
        charges.charge("project", model.project_ms(n), n)
    elif kind == "join":
        _, right, left, out = event
        n_right, n_left = counts[right], counts[left]
        charges.charge(
            "join", model.join_ms(n_right, n_left, counts[out]),
            n_left + n_right,
        )
    else:
        _, work, left, branches, out, right, delta, right_plan = event
        n_left = counts[left]
        charges.charge(
            "outer_join",
            model.join_ms(counts[work], n_left * branches, counts[out]),
            n_left + counts[right],
        )
        if model.reevaluates(right_plan):
            charges.charge(
                "outer_join_reevaluation",
                model.reevaluation_ms(n_left, counts[delta]),
            )


# -- lowering -------------------------------------------------------------


class _Lowering:
    """Cuts one plan into units; ``shared`` are its recurring
    fingerprints."""

    def __init__(self, shared):
        self.shared = shared

    def is_shared(self, op):
        # Most plans share nothing: skip hashing the fingerprint then.
        return bool(self.shared) and op.fingerprint() in self.shared

    def unit(self, op):
        # Kept on the operator, by the plan's shared set (all a lowering
        # depends on): the plans of one view share their sub-plans'
        # operators, so most are lowered once.
        units = getattr(op, "_units", None)
        if units is None:
            units = op._units = {}
        unit = units.get(self.shared)
        if unit is None:
            unit = self._fresh(op)
            if self.is_shared(op):
                unit = _Shared(op.fingerprint(), unit)
            units[self.shared] = unit
        return unit

    def _fresh(self, op):
        if isinstance(op, Distinct):
            return _Distinct(op, [self.unit(op.child)])
        if isinstance(op, Sort):
            return _Sort(op, [self.unit(op.child)])
        if isinstance(op, OuterUnion):
            return _Union(op, [self.unit(child) for child in op.inputs])
        if isinstance(op, Scan):
            return _Scan(op)
        if isinstance(op, _FUSED):
            return self._pipelines(op)
        raise ExecutionError(f"cannot execute operator {op!r}")

    def _pipelines(self, top):
        """The pipeline ending at ``top``: its probe chain followed down to
        a table scan or to a unit, then built bottom-up, cut where an
        input would come after a counted event."""
        chain = [top]
        while not isinstance(chain[-1], Scan):
            below = _probe_child(chain[-1])
            if self.is_shared(below) or not isinstance(below, _FUSED):
                break
            chain.append(below)
        chain.reverse()
        if isinstance(chain[0], Scan):
            builder = _Builder(self, table=chain.pop(0))
        else:
            builder = _Builder(self, unit=self.unit(_probe_child(chain[0])))
        for op in chain:
            if builder.split is not None and _needs_input(op):
                builder = _Builder(self, unit=builder.finish(_probe_child(op)))
            builder.add(op)
        return builder.finish(top)


def _probe_child(op):
    return op.left if isinstance(op, (InnerJoin, LeftOuterJoin)) else op.child


def _needs_input(op):
    """Whether ``op`` evaluates a build side the loop reads: an outer
    join's derived table, an inner join's non-scan right side."""
    if isinstance(op, LeftOuterJoin):
        return True
    return isinstance(op, InnerJoin) and not isinstance(op.right, Scan)


class _Builder:
    """Generates one pipeline's loop nest and lists its events.

    The logical row is held as the source text of each column: ``r<j>[i]``
    for a column of the ``j``-th row variable (the source is ``r0``, each
    join adds one), an argument of ``src`` for a constant, ``None`` for a
    literal NULL.  Filters become ``continue`` tests, joins nested loops
    over index buckets, projections a new list of column texts; the
    innermost level appends the output row.
    """

    def __init__(self, lowering, table=None, unit=None):
        self.lowering = lowering
        self.events = []
        self.builds = []
        self.src = codegen.Source()
        #: One ("filter", ...) or ("join", ...) entry per loop level.
        self.levels = []
        self.counters = []       # slots the loop counts, in return order
        self.build_work = []     # slots of outer-join build work
        self.split = None        # index of the first event needing the loop
        self.n_slots = 0
        self.joins = 0
        self.filters = 0
        self.fused = 0
        #: The slot of the current row count: the source's, then each
        #: filter's and join's.
        self.current = self._slot()
        if table is not None:
            name = table.table_schema.name
            self.events.append(("scan", name, self.current))
            self.source = ("table", name)
            self.cols = [f"r0[{i}]" for i in range(len(table.columns()))]
        else:
            self.events.append(("unit", unit, self.current, None))
            self.source = ("unit", self.current)
            self.cols = None     # known from the first operator added
        self.rows = ["r0"]     # the row variables whose rows make up cols

    def _slot(self):
        self.n_slots += 1
        return self.n_slots - 1

    def _event(self, event, uses_loop):
        if uses_loop and self.split is None:
            self.split = len(self.events)
        self.events.append(event)

    def _loop_slot(self):
        slot = self._slot()
        self.counters.append(slot)
        return slot

    def add(self, op):
        self.fused += 1
        if self.cols is None:
            width = len(_probe_child(op).columns())
            self.cols = self.source_cols = [f"r0[{i}]" for i in range(width)]
        names = _probe_child(op).positions()
        cols = self.cols
        counted = self.current in self.counters
        if isinstance(op, Filter):
            self._event(("filter", self.current), counted)
            self.current = self._loop_slot()
            self.filters += 1
            self.levels.append(("filter", self._condition(op, names, cols),
                                self.current))
        elif isinstance(op, Project):
            self._event(("project", self.current), counted)
            self.cols = [
                cols[names[item.expr.name]] if isinstance(item.expr, ColumnRef)
                else self._literal(item.expr) for item in op.items
            ]
            self.rows = None
        elif isinstance(op, InnerJoin):
            self._inner_join(op, names, cols)
        else:
            self._outer_join(op, names, cols)

    def _literal(self, expr):
        if not isinstance(expr, Literal):
            raise ExecutionError(f"unsupported projection {expr!r}")
        return "None" if expr.value is None else self.src.arg(expr.value)

    def _condition(self, op, names, cols):
        columns = {name: cols[i] for name, i in names.items()}
        return algebra.predicate_source(op.predicate, columns, self.src)

    def _key(self, names, cols, columns):
        return _row([cols[names[column]] for column in columns],
                    scalar=len(columns) == 1)

    def _inner_join(self, op, names, cols):
        right = op.right
        right_slot = self._slot()
        columns = [r for _, r in op.equalities]
        if isinstance(right, Scan):
            name = right.table_schema.name
            if self.lowering.is_shared(right):
                # Charged as the memo says (scan or rescan), read from
                # the table's index.
                self._event(("unit", self.lowering.unit(right), right_slot,
                             None), False)
            else:
                self._event(("scan", name, right_slot), False)
            table_columns = right.table_schema.columns
            positions = right.positions()
            self.builds.append(("index", name, tuple(
                table_columns[positions[column]].name for column in columns)))
        else:
            self._event(("unit", self.lowering.unit(right), right_slot, None),
                        False)
            positions = right.positions()
            self.builds.append(("hash", right_slot, tuple(
                positions[column] for column in columns)))
        out = self._loop_slot()
        self._event(("join", right_slot, self.current, out), True)
        self.current = out
        key = self._key(names, cols, [l for l, _ in op.equalities])
        self._join_level(key_texts=[key], width=len(right.columns()),
                         outer=False, slot=out)

    def _outer_join(self, op, names, cols):
        right = op.right
        right_slot, delta_slot = self._slot(), self._slot()
        self._event(("unit", self.lowering.unit(right), right_slot,
                     delta_slot), False)
        positions = right.positions()
        branches = []
        keys = []
        for branch in op.branches:
            tag = (None if branch.tag_column is None
                   else (positions[branch.tag_column], branch.tag_value))
            branches.append((tuple(positions[r] for _, r in branch.equalities),
                             tag))
            keys.append(self._key(names, cols,
                                  [l for l, _ in branch.equalities]))
        self.builds.append(("outer", right_slot, None, *branches))
        work = self._slot()
        self.build_work.append(work)
        out = self._loop_slot()
        self._event(("outer_join", work, self.current, len(op.branches), out,
                     right_slot, delta_slot, right), True)
        self.current = out
        self._join_level(key_texts=keys, width=len(right.columns()),
                         outer=True, slot=out)

    def _join_level(self, key_texts, width, outer, slot):
        self.joins += 1
        j = self.joins
        self.levels.append(("join", j, key_texts, outer, width, slot))
        self.cols = self.cols + [f"r{j}[{i}]" for i in range(width)]
        if self.rows is not None:
            self.rows = self.rows + [f"r{j}"]

    def finish(self, op):
        """The pipeline ending at ``op``, compiled (or found compiled)."""
        if not self.levels and self.source[0] == "unit" and (
                self.cols == self.source_cols):
            kernel = None   # projections that rename only: share the rows
        else:
            self._emit()
            kernel = codegen.compiled(("pipeline", self.src.text()),
                                      lambda: self.src)
        split = len(self.events) if self.split is None else self.split
        # Build work is computed beside the loop, ahead of its counts.
        counted = tuple(self.build_work) + tuple(self.counters)
        # What the loop counts depends on where the chain was cut (a
        # sub-plan shared in one plan is a source, in another it is
        # fused), so a cut chain's result is kept under its length too.
        key = op.fingerprint()
        if self.source[0] != "table":
            key = (key, self.fused)
        return _Pipeline(op, key, self.source, tuple(self.builds),
                         tuple(self.events), split, counted, self.n_slots,
                         kernel, tuple(self.src.args.values()))

    def _emit(self):
        """Write the loop nest into ``src``.  The last counter is
        ``len(out)`` (the runner adds it), every other one is counted in
        the loop."""
        src, add = self.src, self.src.add
        n_builds = sum(1 if kind != "outer" else len(branches)
                       for kind, _, _, *branches in self.builds)
        params = ["S"] + [f"X{i}" for i in range(n_builds)] + list(src.args)
        add(0, f"def pipeline({', '.join(params)}):")
        row = (" + ".join(self.rows) if self.rows is not None
               else _row(self.cols))
        inline = self.counters[-1:]
        if not self.joins and self.filters <= 1:
            tests = "".join(f" if {level[1]}" for level in self.levels)
            add(1, f"return [{row} for r0 in S{tests}],")
            return
        counters = [f"n{slot}" for slot in self.counters
                    if slot not in inline]
        add(1, "out = []")
        add(1, "append = out.append")
        add(1, "E = []")
        if counters:
            add(1, f"{' = '.join(counters)} = 0")
        for level in self.levels:
            if level[0] == "join" and level[3]:
                add(1, f"P{level[1]} = ((None,) * {level[4]},)")
        add(1, "for r0 in S:")
        depth = 2
        build = 0
        for level in self.levels:
            if level[0] == "filter":
                _, condition, slot = level
                add(depth, f"if not ({condition}):")
                add(depth + 1, "continue")
                if slot not in inline:
                    add(depth, f"n{slot} += 1")
                continue
            _, j, keys, outer, _, slot = level
            probes = []
            for key in keys:
                probes.append(f"X{build}.get({key}, E)")
                build += 1
            bucket = " + ".join(probes)
            if outer:
                bucket = f"({bucket}) or P{j}" if len(probes) > 1 else (
                    f"{bucket} or P{j}")
            if slot in inline:
                add(depth, f"for r{j} in {bucket}:")
            else:
                add(depth, f"b{j} = {bucket}")
                add(depth, f"n{slot} += {src.const(len, 'LEN')}(b{j})")
                add(depth, f"for r{j} in b{j}:")
            depth += 1
        add(depth, f"append({row})")
        add(1, f"return out, {', '.join(counters)}" if counters
            else "return out,")


def _row(texts, scalar=False):
    """A tuple display of ``texts`` (the one text itself if ``scalar``)."""
    if scalar:
        return texts[0]
    if len(texts) == 1:
        return f"({texts[0]},)"
    return f"({', '.join(texts)})"
