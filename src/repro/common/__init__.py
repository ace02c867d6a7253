"""Shared utilities for the SilkRoute reproduction.

This package holds the error hierarchy and the small, widely reused helpers
(ordering of heterogeneous sort keys, identifier formatting) that every other
subpackage builds on.
"""

from repro.common.errors import (
    ReproError,
    SchemaError,
    QueryError,
    RxlSyntaxError,
    RxlScopeError,
    PlanError,
    ExecutionError,
    TimeoutExceeded,
    DtdError,
    ValidationError,
)
from repro.common.ordering import NoneFirst, sort_key

__all__ = [
    "ReproError",
    "SchemaError",
    "QueryError",
    "RxlSyntaxError",
    "RxlScopeError",
    "PlanError",
    "ExecutionError",
    "TimeoutExceeded",
    "DtdError",
    "ValidationError",
    "NoneFirst",
    "sort_key",
]
