"""The greedy plan-generation algorithm (Sec. 5, Fig. 17).

``genPlan`` walks the view tree's edges greedily.  The *relative cost* of an
edge is ``cost(qc) - (cost(q1) + cost(q2))`` where ``q1``/``q2`` are the
queries of the two components the edge connects and ``qc`` their combined
query; costs come from the RDBMS oracle via

    cost(q, a, b) = a * evaluation_cost(q) + b * data_size(q)

plus the per-query startup overhead (the oracle's ``query_cost``:
combining two queries saves one round-trip, which is part of what makes an
edge attractive).  The cheapest
edge is added as **mandatory** if its relative cost is below ``t1``, as
**optional** if below ``t2``; in both cases the components merge and the
process repeats until no edge qualifies.

The result is a *family* of plans: the mandatory edges plus any subset of
the optional edges (Fig. 18's solid and dashed edges).

The oracle's two answers are memoized by component (the set of view-tree
nodes it covers) and weighed by ``a``/``b`` at use, so one planner serves
any parameters; ``oracle_requests`` counts the distinct component queries
actually sent to the oracle — the paper's Sec. 5.1 observation is that
this is far below the worst case.
"""

import itertools
from dataclasses import dataclass

from repro.common.errors import PlanError
from repro.core.partition import Partition, Subtree
from repro.core.sqlgen import PlanStyle
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class GreedyParameters:
    """Coefficients and thresholds of the cost comparison.

    The paper used a=100, b=1, t1=-60000, t2=6000 for every query and both
    configurations, concluding the values depend on the database
    environment, not the query.  The defaults here are calibrated to this
    repo's simulated cost model (see EXPERIMENTS.md) and likewise shared by
    all queries/configurations.
    """

    a: float = 100.0
    b: float = 1.0
    t1: float = -6_150.0
    t2: float = 6_000.0


@dataclass(frozen=True)
class GreedyPlan:
    """The algorithm's output: mandatory and optional edge sets."""

    mandatory: frozenset  # of child-node index tuples
    optional: frozenset
    oracle_requests: int = 0
    oracle_cache_hits: int = 0

    def partitions(self):
        """Every plan in the family: mandatory edges plus any subset of the
        optional edges."""
        optional = sorted(self.optional)
        plans = []
        for r in range(len(optional) + 1):
            for combo in itertools.combinations(optional, r):
                plans.append(Partition(self.mandatory | frozenset(combo)))
        return plans

    def recommended(self):
        """The single representative plan: all qualifying edges kept."""
        return Partition(self.mandatory | self.optional)

    def describe(self):
        def fmt(indices):
            return [
                "S" + ".".join(map(str, index)) for index in sorted(indices)
            ]

        return {
            "mandatory": fmt(self.mandatory),
            "optional": fmt(self.optional),
            "family_size": 2 ** len(self.optional),
        }


class GreedyPlanner:
    """Runs genPlan over a labeled view tree, costing the component
    queries of its ``generator`` — which a view then executes with, so
    the plan that wins is served from the very specs that were costed."""

    def __init__(self, tree, schema, estimator, style=PlanStyle.OUTER_JOIN,
                 reduce=False, keep=(), generator=None):
        if generator is None:   # a bare tree: define it here
            from repro.core.silkroute import ViewDefinition
            generator = ViewDefinition(tree, schema).generator(style, reduce, keep)
        self.tree = tree
        self.estimator = estimator
        self.generator = generator
        #: component -> the oracle's ``(query_cost, data_size)``.
        self._component_cost = {}
        self.oracle_requests = 0
        self.oracle_cache_hits = 0
        self.family = None  # the last plan; degradation re-plans along it

    def plan(self, params=None, tracer=NULL_TRACER):
        """Run genPlan; ``tracer`` (an observability tracer) records the
        run as a ``plan`` span with the chosen edge counts and the oracle
        traffic as attributes."""
        with tracer.span("plan", style=self.generator.style.value) as span:
            plan = self.family = self._plan(params, tracer)
            span.set(
                mandatory=len(plan.mandatory),
                optional=len(plan.optional),
                oracle_requests=plan.oracle_requests,
                oracle_cache_hits=plan.oracle_cache_hits,
            )
            return plan

    def _plan(self, params, tracer):
        params = params or GreedyParameters()
        components = {node.index: frozenset([node.index]) for node in self.tree.nodes}
        edges = {child.index: (parent.index, child.index)
                 for parent, child in self.tree.edges}
        mandatory = set()
        optional = set()

        while edges:
            best = None
            for edge_id, (parent_index, child_index) in edges.items():
                comp1 = components[parent_index]
                comp2 = components[child_index]
                combined = comp1 | comp2
                relative = (
                    self._cost(combined, params, tracer)
                    - self._cost(comp1, params, tracer)
                    - self._cost(comp2, params, tracer)
                )
                if best is None or relative < best[0]:
                    best = (relative, edge_id, combined)
            relative, edge_id, combined = best
            if relative < params.t1:
                mandatory.add(edge_id)
            elif relative < params.t2:
                optional.add(edge_id)
            else:
                break
            del edges[edge_id]
            for index in combined:
                components[index] = combined

        return GreedyPlan(
            mandatory=frozenset(mandatory),
            optional=frozenset(optional),
            oracle_requests=self.oracle_requests,
            oracle_cache_hits=self.oracle_cache_hits,
        )

    # -- component costing -------------------------------------------------------

    def _cost(self, component, params, tracer):
        answers = self._component_cost.get(component)
        if answers is not None:
            self.oracle_cache_hits += 1
        else:
            self.oracle_requests += 1
            plan = self._component_plan(component, tracer)
            answers = self._component_cost[component] = (
                self.estimator.query_cost(plan),
                self.estimator.data_size(plan),
            )
        evaluation, data_size = answers
        return params.a * evaluation + params.b * data_size

    def _component_plan(self, component, tracer):
        nodes = [self.tree.node(index) for index in sorted(component)]
        roots = [
            node
            for node in nodes
            if node.parent is None or node.parent.index not in component
        ]
        if len(roots) != 1:
            raise PlanError("component is not connected")
        subtree = Subtree(self.tree, roots[0], nodes)
        return self.generator.stream_for_subtree(subtree, tracer).plan
