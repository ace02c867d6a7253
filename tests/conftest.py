"""Shared fixtures: a tiny deterministic TPC-H database, the workload view
trees, and ready-made connections/estimators.

The ``tiny`` scale keeps integration tests fast while preserving every
structural property (suppliers without parts, parts without orders, etc.).
"""

import pytest

from repro.relational.algebra import JoinBranch, LeftOuterJoin
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.estimator import CostEstimator
from repro.tpch.generator import TpchGenerator, TpchScale
from repro.tpch.schema import tpch_schema
from repro.bench.queries import QUERY_1, QUERY_2, load_view

TINY_SCALE = TpchScale(suppliers=8, parts=16, customers=10, orders=40)


def simple_outer_join(left, right, equalities):
    """A single-branch, untagged left outer join."""
    return LeftOuterJoin(left, right, [JoinBranch(tuple(equalities))])


def spans_named(root, name):
    """Every span under ``root`` (a tracer or a span) named ``name`` or
    ``name:<suffix>`` (``"stream"`` matches every ``stream:<label>``)."""
    return [s for s in root.walk()
            if s.name == name or s.name.startswith(name + ":")]


@pytest.fixture(scope="session")
def schema():
    return tpch_schema()


@pytest.fixture(scope="session")
def tiny_db():
    return TpchGenerator(scale=TINY_SCALE, seed=42).generate()


@pytest.fixture(scope="session")
def tiny_conn(tiny_db):
    return Connection(tiny_db, CostModel())


@pytest.fixture(scope="session")
def tiny_estimator(tiny_db):
    return CostEstimator(tiny_db, CostModel())


@pytest.fixture(scope="session")
def q1_tree(tiny_db):
    return load_view(QUERY_1, tiny_db.schema)


@pytest.fixture(scope="session")
def q2_tree(tiny_db):
    return load_view(QUERY_2, tiny_db.schema)
