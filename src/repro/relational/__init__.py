"""In-memory relational engine substrate.

This package stands in for the unnamed commercial RDBMS the paper reached
over JDBC.  It provides:

* schema definition with keys and foreign keys (:mod:`repro.relational.schema`),
* tables, a database catalog, and per-table statistics
  (:mod:`repro.relational.table`, :mod:`repro.relational.database`),
* functional/inclusion dependency reasoning used by view-tree labeling
  (:mod:`repro.relational.dependencies`),
* a relational-algebra IR (:mod:`repro.relational.algebra`),
* SQL text rendering (:mod:`repro.relational.sqltext`),
* the executing engine with a deterministic analytical cost model
  (:mod:`repro.relational.engine`),
* a cardinality/cost estimator, the "RDBMS oracle" of Sec. 5
  (:mod:`repro.relational.estimator`), and
* a client/server connection layer with simulated transfer timing
  (:mod:`repro.relational.connection`),
* a real SQLite target and the cross-validation of generated SQL on it
  (:mod:`repro.relational.backends`),
* measurement-calibrated cost estimation
  (:mod:`repro.relational.calibrate`), and
* the durable store, one SQLite file a database commits its writes to
  (:mod:`repro.relational.store`).
"""

from repro.relational.types import SqlType
from repro.relational.schema import Column, TableSchema, ForeignKey, DatabaseSchema
from repro.relational.table import Table
from repro.relational.database import Database, TableStats, synthesize_rows
from repro.relational.dependencies import (
    FunctionalDependency,
    InclusionDependency,
    attribute_closure,
    plan_tables,
)
from repro.relational.algebra import (
    ColumnRef,
    Literal,
    Comparison,
    And,
    Scan,
    Filter,
    Project,
    Distinct,
    InnerJoin,
    LeftOuterJoin,
    OuterUnion,
    Sort,
    ConstantColumn,
)
from repro.relational.cache import (
    CacheStats,
    NodeResultCache,
    PlanResultCache,
    resolve_cache,
)
from repro.relational.engine import CostModel, QueryEngine, ExecutionResult, IterResult
from repro.relational.estimator import CostEstimator, EstimateCache
from repro.relational.faults import (
    NO_RETRY,
    FaultPolicy,
    RetryPolicy,
    StreamAttemptStats,
)
from repro.relational.sqltext import render_sql
from repro.relational.connection import (
    Connection,
    SourceDescription,
    TupleCursor,
    TupleStream,
)
from repro.relational.dispatch import (
    DispatchResult,
    execute_specs,
    simulated_makespan,
)
from repro.relational.backends import (
    Backend,
    SqliteBackend,
    cross_validate,
)
from repro.relational.calibrate import (
    CalibratedCostModel,
    CalibrationResult,
    calibrate,
    plan_agreement,
)
from repro.relational.store import Store
from repro.relational.resilience import (
    ReplicaHealth,
    ReplicaPool,
    Resilience,
    replica_fault_policy,
)

__all__ = [
    "SqlType",
    "Column",
    "TableSchema",
    "ForeignKey",
    "DatabaseSchema",
    "Table",
    "Database",
    "TableStats",
    "synthesize_rows",
    "FunctionalDependency",
    "InclusionDependency",
    "attribute_closure",
    "plan_tables",
    "ColumnRef",
    "Literal",
    "Comparison",
    "And",
    "Scan",
    "Filter",
    "Project",
    "Distinct",
    "InnerJoin",
    "LeftOuterJoin",
    "OuterUnion",
    "Sort",
    "ConstantColumn",
    "CacheStats",
    "NodeResultCache",
    "PlanResultCache",
    "resolve_cache",
    "FaultPolicy",
    "RetryPolicy",
    "NO_RETRY",
    "StreamAttemptStats",
    "CostModel",
    "QueryEngine",
    "ExecutionResult",
    "IterResult",
    "CostEstimator",
    "EstimateCache",
    "Connection",
    "TupleCursor",
    "TupleStream",
    "DispatchResult",
    "execute_specs",
    "simulated_makespan",
    "ReplicaHealth",
    "ReplicaPool",
    "Resilience",
    "replica_fault_policy",
    "SourceDescription",
    "render_sql",
    "Backend",
    "SqliteBackend",
    "cross_validate",
    "CalibratedCostModel",
    "CalibrationResult",
    "calibrate",
    "plan_agreement",
    "Store",
]
