"""Reproduction of "Efficient Evaluation of XML Middle-ware Queries"
(Fernández, Morishima, Suciu — SIGMOD 2001): the SilkRoute view-tree
decomposition and greedy plan-generation system, with a from-scratch
in-memory relational engine, TPC-H data generator, RXL language, and
constant-space XML tagger.

Quickstart::

    from repro import Session

    session = Session()                  # Configuration-A TPC-H database
    result = session.materialize(RXL_TEXT, indent=2)
    print(result.xml)

(:class:`Session` wraps the lower-level :class:`SilkRoute` facade — see
:mod:`repro.session`; the multi-tenant query service lives in
:mod:`repro.serve`.)
"""

from repro.common.errors import (
    ReproError,
    SchemaError,
    QueryError,
    RxlSyntaxError,
    RxlScopeError,
    PlanError,
    ExecutionError,
    BackendMismatchError,
    StaleGenerationError,
    TimeoutExceeded,
    TransientConnectionError,
    OverloadError,
    WalError,
    DtdError,
    ValidationError,
)
from repro.relational import (
    Backend,
    SqliteBackend,
    cross_validate,
    CalibratedCostModel,
    calibrate,
    NO_RETRY,
    Column,
    Connection,
    CostEstimator,
    CostModel,
    Database,
    FaultPolicy,
    PlanResultCache,
    DatabaseSchema,
    ForeignKey,
    QueryEngine,
    ReplicaPool,
    Resilience,
    RetryPolicy,
    SourceDescription,
    SqlType,
    Table,
    TableSchema,
)
from repro.core import (
    ExecutionOptions,
    GreedyParameters,
    GreedyPlan,
    GreedyPlanner,
    MaterializedView,
    Partition,
    PlanStyle,
    SilkRoute,
    SqlGenerator,
    ViewTree,
    build_view_tree,
    enumerate_partitions,
    fully_partitioned,
    label_view_tree,
    unified_partition,
)
from repro.obs import (
    MetricsRegistry,
    ObsOptions,
    Tracer,
    chrome_trace_json,
    metrics_json,
    profile_tree,
)
from repro.rxl import parse_rxl, validate_rxl
from repro.serve import ServeClient, ServeError, Server
from repro.session import QueryResult, Session, apply_delta
from repro.xmlgen import parse_dtd, validate_document

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SchemaError",
    "QueryError",
    "RxlSyntaxError",
    "RxlScopeError",
    "PlanError",
    "ExecutionError",
    "BackendMismatchError",
    "StaleGenerationError",
    "TimeoutExceeded",
    "TransientConnectionError",
    "OverloadError",
    "WalError",
    "DtdError",
    "ValidationError",
    "FaultPolicy",
    "RetryPolicy",
    "NO_RETRY",
    "Resilience",
    "ReplicaPool",
    "ExecutionOptions",
    "Session",
    "QueryResult",
    "apply_delta",
    "Server",
    "ServeClient",
    "ServeError",
    "Column",
    "Connection",
    "Backend",
    "SqliteBackend",
    "cross_validate",
    "CalibratedCostModel",
    "calibrate",
    "CostEstimator",
    "CostModel",
    "Database",
    "DatabaseSchema",
    "ForeignKey",
    "PlanResultCache",
    "QueryEngine",
    "SourceDescription",
    "SqlType",
    "Table",
    "TableSchema",
    "GreedyParameters",
    "GreedyPlan",
    "GreedyPlanner",
    "MaterializedView",
    "Partition",
    "PlanStyle",
    "SilkRoute",
    "SqlGenerator",
    "ViewTree",
    "build_view_tree",
    "enumerate_partitions",
    "fully_partitioned",
    "label_view_tree",
    "unified_partition",
    "ObsOptions",
    "Tracer",
    "MetricsRegistry",
    "chrome_trace_json",
    "profile_tree",
    "metrics_json",
    "parse_rxl",
    "validate_rxl",
    "parse_dtd",
    "validate_document",
    "__version__",
]
