"""Functional and inclusion dependency reasoning.

The paper labels view-tree edges (Sec. 3.5) by checking a functional
dependency (condition C1) and an inclusion dependency (condition C2).  The
general combined implication problem is undecidable, so — exactly like
SilkRoute — we restrict ourselves to FD implication *without* considering
inclusion dependencies, which the classic attribute-closure algorithm
decides in (near) linear time [Beeri & Bernstein 1979].

Dependencies here are over abstract attribute names (the planner uses
datalog column variables).  Deriving the FD set for a concrete rule body
happens in :mod:`repro.core.labeling`.

This module also hosts the *data* dependencies of the incremental-
maintenance layer: :func:`plan_tables` maps a relational plan to the set
of base tables it reads, which is what lets a mutation invalidate only
the cached results that depend on the touched tables (:func:`is_stale`).
"""

from dataclasses import dataclass

from repro.relational.algebra import Scan


def plan_tables(plan):
    """The base tables a plan reads, as a frozenset of table names.

    This is the dependency footprint behind delta propagation: a cached
    result for ``plan`` — in the :class:`~repro.relational.cache.PlanResultCache`
    or the XML document cache — stays valid across any mutation of a table
    *not* in this set.  A node's set
    is the union of its children's (a :class:`~repro.relational.algebra.Scan`
    names its table); like ``fingerprint()`` it is kept on the operator,
    plans being immutable once built, and interned: the operators of a
    view's plans read a handful of distinct sets.
    """
    tables = getattr(plan, "_tables", None)
    if tables is None:
        if isinstance(plan, Scan):
            tables = frozenset((plan.table_schema.name,))
        else:
            tables = frozenset().union(*map(plan_tables, plan.children))
        interned = _TABLE_SETS.get(tables)
        if interned is None:
            interned = _TABLE_SETS[tables] = tables
            SORTED_TABLES[tables] = tuple(sorted(tables))
        tables = plan._tables = interned
    return tables


#: Every table set :func:`plan_tables` has made, for sharing: a set of
#: the schema's table names, so bounded by the names the process knows.
_TABLE_SETS = {}
#: The names of each of those sets, sorted, as a dependency key lists
#: them (:meth:`~repro.relational.database.Database.dependency_key`).
SORTED_TABLES = {}


def is_stale(dependency_key, token, current):
    """Does ``dependency_key`` (a ``Database.dependency_key`` value) name
    a dead generation of the database with instance ``token`` and
    per-table generations ``current``?  Nothing cached under such a key
    can be served again.  (Another database's keys are not judged.)"""
    key_token, generations = dependency_key
    return key_token == token and any(
        current.get(name) != generation for name, generation in generations
    )


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs -> rhs`` over attribute names."""

    lhs: frozenset
    rhs: frozenset

    @classmethod
    def of(cls, lhs, rhs):
        """Build from any iterables of attribute names."""
        return cls(frozenset(lhs), frozenset(rhs))


@dataclass(frozen=True)
class InclusionDependency:
    """``lhs_relation[lhs_attrs] ⊆ rhs_relation[rhs_attrs]``.

    Used as a record of what was assumed/derived; the actual C2 check is a
    structural foreign-key argument in :mod:`repro.core.labeling`.
    """

    lhs_relation: str
    lhs_attrs: tuple
    rhs_relation: str
    rhs_attrs: tuple


def attribute_closure(attributes, fds):
    """Closure of an attribute set under a collection of FDs.

    Standard fixpoint: repeatedly add the right side of any FD whose left
    side is contained in the current set.  With the indexed worklist below
    this runs in time proportional to the total size of the FD set.
    """
    closure = set(attributes)
    # Index FDs by each left-hand attribute; count how many lhs attributes
    # of each FD are still missing from the closure.
    fds = list(fds)
    missing = []
    by_attr = {}
    ready = []
    for i, fd in enumerate(fds):
        outstanding = len(fd.lhs - closure)
        missing.append(outstanding)
        if outstanding == 0:
            ready.append(i)
        for attr in fd.lhs - closure:
            by_attr.setdefault(attr, []).append(i)
    queue = list(closure)
    while ready or queue:
        while ready:
            fd = fds[ready.pop()]
            for attr in fd.rhs:
                if attr not in closure:
                    closure.add(attr)
                    queue.append(attr)
        if queue:
            attr = queue.pop()
            for i in by_attr.get(attr, ()):
                missing[i] -= 1
                if missing[i] == 0:
                    ready.append(i)
    return frozenset(closure)
