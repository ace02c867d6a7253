"""The paper's contribution: view trees, partitioning, reduction, SQL
generation, the greedy plan-generation algorithm, and the SilkRoute facade.
"""

from repro.core.viewtree import ViewTree, ViewTreeNode, Stv, NodeRule, build_view_tree
from repro.core.labeling import label_view_tree, edge_label
from repro.core.partition import (
    Partition,
    Subtree,
    enumerate_partitions,
    partition_subtrees,
    unified_partition,
    fully_partitioned,
)
from repro.core.reduction import (
    ReducedSubtree,
    reduce_subtree,
    suggest_keep,
)
from repro.core.sqlgen import SqlGenerator, StreamSpec, PlanStyle
from repro.core.greedy import GreedyPlanner, GreedyPlan, GreedyParameters
from repro.core.options import (
    ExecutionOptions,
    resolve_options,
)
from repro.core.silkroute import (
    MaterializedView,
    PlanReport,
    SilkRoute,
    StreamReport,
    XmlView,
)

__all__ = [
    "ViewTree",
    "ViewTreeNode",
    "Stv",
    "NodeRule",
    "build_view_tree",
    "label_view_tree",
    "edge_label",
    "Partition",
    "Subtree",
    "enumerate_partitions",
    "partition_subtrees",
    "unified_partition",
    "fully_partitioned",
    "ReducedSubtree",
    "reduce_subtree",
    "suggest_keep",
    "SqlGenerator",
    "StreamSpec",
    "PlanStyle",
    "GreedyPlanner",
    "GreedyPlan",
    "GreedyParameters",
    "ExecutionOptions",
    "resolve_options",
    "SilkRoute",
    "MaterializedView",
    "PlanReport",
    "StreamReport",
    "XmlView",
]
