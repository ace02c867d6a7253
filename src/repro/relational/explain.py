"""Textual EXPLAIN for algebra plans.

Renders a plan as an indented operator tree, optionally annotated with the
oracle's cardinality/cost estimates and (when an engine is supplied) actual
row counts — the debugging view a middle-ware developer lives in.
"""

from repro.relational.algebra import (
    Distinct,
    Filter,
    InnerJoin,
    LeftOuterJoin,
    OuterUnion,
    Project,
    Scan,
    Sort,
)


def explain_plan(plan, estimator=None, engine=None, indent="  "):
    """Render ``plan`` as text.

    ``estimator`` adds ``est_rows``/``est_ms`` annotations; ``engine``
    executes sub-plans to add exact ``rows`` (intended for small test
    databases — it evaluates every operator).
    """
    lines = []
    _walk(plan, 0, lines, estimator, engine, indent)
    return "\n".join(lines)


def _describe(op):
    if isinstance(op, Scan):
        return f"Scan {op.table_schema.name} AS {op.alias}"
    if isinstance(op, Filter):
        return f"Filter [{op.predicate.to_sql()}]"
    if isinstance(op, Project):
        names = ", ".join(i.name for i in op.items)
        if len(names) > 60:
            names = names[:57] + "..."
        return f"Project [{names}]"
    if isinstance(op, Distinct):
        return "Distinct"
    if isinstance(op, InnerJoin):
        conds = ", ".join(f"{l} = {r}" for l, r in op.equalities) or "TRUE"
        return f"InnerJoin [{conds}]"
    if isinstance(op, LeftOuterJoin):
        branch_bits = []
        for branch in op.branches:
            tag = (
                f"{branch.tag_column}={branch.tag_value} AND "
                if branch.tag_column is not None
                else ""
            )
            eqs = ", ".join(f"{l} = {r}" for l, r in branch.equalities)
            branch_bits.append(f"({tag}{eqs or 'TRUE'})")
        return "LeftOuterJoin [" + " OR ".join(branch_bits) + "]"
    if isinstance(op, OuterUnion):
        keyword = "OuterUnion DISTINCT" if op.distinct else "OuterUnion"
        return f"{keyword} [{len(op.inputs)} branches]"
    if isinstance(op, Sort):
        keys = ", ".join(op.keys)
        if len(keys) > 60:
            keys = keys[:57] + "..."
        return f"Sort [{keys}]"
    return type(op).__name__


def _walk(op, depth, lines, estimator, engine, indent):
    annotations = []
    if estimator is not None:
        estimate = estimator.estimate(op)
        annotations.append(f"est_rows={estimate.cardinality:.0f}")
        annotations.append(f"est_ms={estimate.server_ms:.1f}")
    if engine is not None:
        result = engine.execute(op)
        annotations.append(f"rows={result.row_count}")
    suffix = f"  ({', '.join(annotations)})" if annotations else ""
    lines.append(f"{indent * depth}{_describe(op)}{suffix}")
    for child in op.children:
        _walk(child, depth + 1, lines, estimator, engine, indent)
