"""Cardinality and cost estimation — the middle-ware's "RDBMS oracle".

Sec. 5 of the paper: *"The only reliable source of query costs is the target
RDBMs ... The RDBMs serves as an oracle, providing the values for the
functions evaluation_cost and cardinality."*  This module plays that oracle:
it walks an algebra plan and predicts cardinality, average row width, and
evaluation cost by calling the same
:class:`~repro.relational.engine.CostModel` methods as the executing
engine, with counts guessed from table statistics instead of counted —
except that a sub-plan shared within a query is charged in full at every
occurrence, where the engines charge it once plus ``rescan``.

Estimates are cached by structural plan fingerprint and the generations
of the tables the plan reads; the cache also counts *oracle requests*,
reproducing the paper's observation (Sec. 5.1) that the greedy algorithm
issues far fewer estimate requests than the worst case because combined
queries recur.  They recur across sessions too: every session that brings
no estimator asks the one of its database (:meth:`CostEstimator.shared`).
"""

import threading
import weakref
from dataclasses import dataclass

from repro.common.errors import QueryError
from repro.relational.cache import BoundedCache
from repro.relational.dependencies import plan_tables
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
    Comparison,
)

#: Default selectivity for a comparison against a literal when no better
#: information is available (the classic System R magic constant).
DEFAULT_LITERAL_SELECTIVITY = 0.1


@dataclass(frozen=True)
class Estimate:
    """Estimated properties of one plan."""

    cardinality: float
    row_width: float
    server_ms: float
    distincts: dict

    def distinct(self, column):
        value = self.distincts.get(column)
        return max(self.cardinality, 1.0) if value is None else value


#: Greedy-planning the paper's two queries in every generator variant
#: (Q1 + Q2 x both styles x reduce on/off) on one estimator leaves 860
#: estimates, 45 to 241 (mean 108) per (view, style, reduce): the bound
#: holds ~38 such plannings, and a session keeps at most 256 views.
MAX_ESTIMATES = 4096


class EstimateCache(BoundedCache):
    """:class:`Estimate` s keyed by ``(plan fingerprint, dependency key)``,
    the plan cache's idiom, the ``MAX_ESTIMATES`` last used kept.

    The dependency key is :meth:`Database.dependency_key
    <repro.relational.database.Database.dependency_key>` of the tables the
    plan reads, so an estimate is served only for the table generations
    it was computed from.  A write moves the key of exactly the plans that
    read the written table: those are estimated again from the refreshed
    statistics, and every other estimate keeps serving.  An entry under a
    dead generation is never asked for again and ages out under the LRU
    bound; sweeping the map at each write would cost the re-planning
    after it more than the key does.

    ``misses`` count the requests that would actually reach the RDBMS
    optimizer, ``hits`` the avoided round trips.  An evicted estimate is
    simply computed again, so plans do not depend on the bound.
    """

    def __init__(self):
        super().__init__("estimates", max_entries=MAX_ESTIMATES)


#: database -> {cost model: its shared CostEstimator}; weak, so a dropped
#: database takes its estimates with it.
_SHARED = weakref.WeakKeyDictionary()
_SHARED_LOCK = threading.Lock()


class CostEstimator:
    """Estimates cardinality and evaluation cost for algebra plans.

    Sessions, :class:`~repro.core.silkroute.SilkRoute` and
    ``build_configuration`` take theirs from :meth:`shared`; one built
    directly answers only its own caller.
    """

    def __init__(self, database, cost_model, cache=None):
        self._database = weakref.ref(database)
        #: What keeps the database alive: none for a shared estimator,
        #: whose registry entry must not (:meth:`shared`).
        self._owner = database
        self.cost_model = cost_model
        self.cache = cache if cache is not None else EstimateCache()

    @classmethod
    def shared(cls, database, cost_model):
        """The one estimator of ``database`` under ``cost_model``: a fresh
        session plans from the answers earlier ones got, as far as the
        tables they read are unwritten since.  It refers to the database
        weakly and lives as long as the database does; any thread may ask
        for it and use it."""
        with _SHARED_LOCK:
            by_model = _SHARED.setdefault(database, {})
            estimator = by_model.get(cost_model)
            if estimator is None:
                estimator = by_model[cost_model] = cls(database, cost_model)
                estimator._owner = None
        return estimator

    @property
    def database(self):
        return self._database()

    # -- public oracle API (the two functions of the paper's Sec. 5) -------

    def evaluation_cost(self, plan):
        """Estimated server-side evaluation cost in simulated ms."""
        return self.estimate(plan).server_ms

    def query_cost(self, plan):
        """:meth:`evaluation_cost` plus the startup the engine charges
        every submitted query: the estimated ``server_ms`` of ``plan``."""
        model = self.cost_model
        return self.evaluation_cost(plan) + model.scaled(model.startup_ms)

    def data_size(self, plan):
        """The paper's ``data_size = f(|attrs(q)| * cardinality(q))``, with
        ``f`` the identity: attribute values, not bytes (the greedy
        thresholds are tuned against this number)."""
        est = self.estimate(plan)
        n_attrs = len(plan.columns())
        return n_attrs * est.cardinality

    def estimate(self, plan):
        # The key is taken before the statistics are read: a concurrent
        # write can only leave an entry under a dead key, never a stale
        # one under a live key.
        database = self._database()
        key = (plan.fingerprint(), database.dependency_key(plan_tables(plan)))
        estimate = self.cache.get(key)
        if estimate is None:
            estimate = self._estimate(plan)
            self.cache.store(key, estimate)
        return estimate

    # -- estimation walk ----------------------------------------------------

    def _estimate(self, op):
        try:
            estimate = self._ESTIMATES[type(op)]
        except KeyError:
            raise QueryError(f"cannot estimate operator {op!r}") from None
        return estimate(self, op)

    def _estimate_scan(self, op):
        stats = self.database.stats(op.table_schema.name)
        distincts = {}
        width = 0.0
        for col in op.columns():
            col_stats = stats.column(col.source[1])
            distincts[col.name] = float(max(col_stats.n_distinct, 1))
            width += max(col_stats.avg_width, 1.0)
        card = float(stats.row_count)
        model = self.cost_model
        return Estimate(
            cardinality=card,
            row_width=width,
            server_ms=model.scaled(model.scan_ms(card)),
            distincts=distincts,
        )

    def _estimate_filter(self, op):
        child = self.estimate(op.child)
        selectivity = self._predicate_selectivity(op.predicate, child)
        card = child.cardinality * selectivity
        model = self.cost_model
        return Estimate(
            cardinality=card,
            row_width=child.row_width,
            server_ms=child.server_ms
            + model.scaled(model.filter_ms(child.cardinality)),
            distincts=_cap_distincts(child.distincts, card),
        )

    def _predicate_selectivity(self, predicate, child_estimate):
        comparisons = (
            predicate.conjuncts if hasattr(predicate, "conjuncts") else (predicate,)
        )
        selectivity = 1.0
        for cmp in comparisons:
            selectivity *= self._comparison_selectivity(cmp, child_estimate)
        return selectivity

    def _comparison_selectivity(self, cmp, child_estimate):
        if not isinstance(cmp, Comparison):
            return DEFAULT_LITERAL_SELECTIVITY
        left_col = isinstance(cmp.left, ColumnRef)
        right_col = isinstance(cmp.right, ColumnRef)
        if cmp.op == "=":
            if left_col and right_col:
                d = max(
                    child_estimate.distinct(cmp.left.name),
                    child_estimate.distinct(cmp.right.name),
                )
                return 1.0 / max(d, 1.0)
            if left_col or right_col:
                name = cmp.left.name if left_col else cmp.right.name
                return 1.0 / max(child_estimate.distinct(name), 1.0)
        if cmp.op == "!=":
            return 1.0 - self._comparison_selectivity(
                Comparison("=", cmp.left, cmp.right), child_estimate
            )
        return 1.0 / 3.0  # range predicates

    def _estimate_project(self, op):
        child = self.estimate(op.child)
        # Column widths ride along via the child estimate's average row width;
        # apportion it equally across columns as a simple, stable heuristic.
        column_width = child.row_width / max(len(op.child.columns()), 1)
        distincts = {}
        width = 0.0
        for item in op.items:
            if isinstance(item.expr, ColumnRef):
                distincts[item.name] = child.distinct(item.expr.name)
                width += column_width
            else:
                distincts[item.name] = 1.0
                width += 4.0
        model = self.cost_model
        return Estimate(
            cardinality=child.cardinality,
            row_width=width,
            server_ms=child.server_ms
            + model.scaled(model.project_ms(child.cardinality)),
            distincts=distincts,
        )

    def _estimate_distinct(self, op):
        child = self.estimate(op.child)
        # Node queries project onto Skolem-term arguments, which include the
        # keys of every in-scope tuple variable, so duplicates are rare:
        # assume DISTINCT keeps the cardinality (a mild overestimate).
        model = self.cost_model
        return Estimate(
            cardinality=child.cardinality,
            row_width=child.row_width,
            server_ms=child.server_ms
            + model.scaled(model.distinct_ms(child.cardinality)),
            distincts=dict(child.distincts),
        )

    def _join_selectivity(self, equalities, left, right):
        selectivity = 1.0
        for l, r in equalities:
            d = max(left.distinct(l), right.distinct(r))
            selectivity *= 1.0 / max(d, 1.0)
        return selectivity

    def _estimate_inner_join(self, op):
        left = self.estimate(op.left)
        right = self.estimate(op.right)
        selectivity = self._join_selectivity(op.equalities, left, right)
        card = left.cardinality * right.cardinality * selectivity
        model = self.cost_model
        cost = left.server_ms + right.server_ms + model.scaled(
            model.join_ms(right.cardinality, left.cardinality, card)
        )
        distincts = _cap_distincts({**left.distincts, **right.distincts}, card)
        return Estimate(card, left.row_width + right.row_width, cost, distincts)

    def _estimate_outer_join(self, op):
        left = self.estimate(op.left)
        right = self.estimate(op.right)
        matched = 0.0
        for branch in op.branches:
            branch_card = right.cardinality
            if branch.tag_column is not None:
                branch_card /= max(len(op.branches), 1)
            selectivity = self._join_selectivity(branch.equalities, left, right)
            matched += left.cardinality * branch_card * selectivity
        card = max(left.cardinality, matched)
        model = self.cost_model
        cost = left.server_ms + right.server_ms + model.scaled(
            model.join_ms(
                right.cardinality, left.cardinality * len(op.branches), card
            )
        )
        if model.reevaluates(op.right):
            # So the greedy planner's oracle predicts (and avoids) the
            # blowups the engine would produce.  ``right.server_ms`` is
            # scaled, as the engines' running-total delta is, so this is
            # ``(x / speed) * speed``: ``x`` exactly at the committed speeds
            # (4.0, 1.0), within an ulp at one that is no power of two.
            cost += model.scaled(
                model.reevaluation_ms(left.cardinality, right.server_ms)
            )
        distincts = _cap_distincts({**left.distincts, **right.distincts}, card)
        return Estimate(card, left.row_width + right.row_width, cost, distincts)

    def _estimate_union(self, op):
        children = [self.estimate(c) for c in op.inputs]
        card = sum(c.cardinality for c in children)
        out_names = op.column_names()
        width = 0.0
        if card > 0:
            for child_op, child in zip(op.inputs, children):
                missing = len(out_names) - len(child_op.columns())
                width += child.cardinality * (child.row_width + missing)
            width /= card
        distincts = {}
        for child in children:
            for name, d in child.distincts.items():
                distincts[name] = distincts.get(name, 0.0) + d
        model = self.cost_model
        cost = sum(c.server_ms for c in children)
        cost += model.scaled(model.union_ms(card))
        return Estimate(card, width, cost, _cap_distincts(distincts, card))

    def _estimate_sort(self, op):
        child = self.estimate(op.child)
        model = self.cost_model
        n = max(child.cardinality, 1.0)
        cost = model.sort_ms(n, child.row_width)
        return Estimate(
            cardinality=child.cardinality,
            row_width=child.row_width,
            server_ms=child.server_ms + model.scaled(cost),
            distincts=dict(child.distincts),
        )

    _ESTIMATES = {
        Scan: _estimate_scan, Filter: _estimate_filter,
        Project: _estimate_project, Distinct: _estimate_distinct,
        InnerJoin: _estimate_inner_join, LeftOuterJoin: _estimate_outer_join,
        OuterUnion: _estimate_union, Sort: _estimate_sort,
    }


def _cap_distincts(distincts, cardinality):
    cap = max(cardinality, 1.0)
    return {name: min(d, cap) for name, d in distincts.items()}
