"""Tests for the client/server layer (repro.relational.connection)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError, TimeoutExceeded
from repro.core.partition import unified_partition
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.algebra import ColumnInfo, Scan
from repro.relational.codegen import CODE
from repro.relational.connection import (
    Connection, SourceDescription, TransferModel,
)
from repro.relational.engine import CostModel
from repro.relational.types import SqlType, width_function


@pytest.fixture
def conn(tiny_db):
    return Connection(tiny_db, CostModel())


def supplier_scan(db):
    return Scan(db.schema.table("Supplier"), "s")


class TestTupleStream:
    def test_execute_returns_stream(self, conn, tiny_db):
        stream = conn.execute(supplier_scan(tiny_db), label="suppliers")
        assert len(stream) == len(tiny_db.table("Supplier"))
        assert stream.server_ms > 0
        assert stream.transfer_ms > 0

    def test_stream_iterable(self, conn, tiny_db):
        stream = conn.execute(supplier_scan(tiny_db))
        assert len(list(stream)) == len(stream)

    def test_budget_propagates(self, conn, tiny_db):
        with pytest.raises(TimeoutExceeded):
            conn.execute(supplier_scan(tiny_db), budget_ms=0.0001)


class TestTransferModel:
    def test_more_rows_cost_more(self, conn, tiny_db):
        small = conn.execute(Scan(tiny_db.schema.table("Region"), "r"))
        large = conn.execute(Scan(tiny_db.schema.table("Orders"), "o"))
        assert large.transfer_ms > small.transfer_ms

    def test_nulls_cheaper_than_values(self, tiny_db):
        model = TransferModel()
        conn = Connection(tiny_db, CostModel(), model)
        scan = Scan(tiny_db.schema.table("Supplier"), "s")
        full = conn._transfer_cost(scan.columns(), [(1, "abc", "xyz", 5)], True)
        nulls = conn._transfer_cost(scan.columns(), [(1, None, None, None)], True)
        assert nulls < full

    def test_wide_row_penalty_only_without_compact(self, tiny_db):
        model = TransferModel(wide_threshold=2, wide_row_factor=1.0)
        conn = Connection(tiny_db, CostModel(), model)
        scan = Scan(tiny_db.schema.table("Supplier"), "s")  # 4 columns
        row = [(1, "a", "b", 2)]
        wide = conn._transfer_cost(scan.columns(), row, compact_rows=False)
        compact = conn._transfer_cost(scan.columns(), row, compact_rows=True)
        assert wide > compact

    def test_no_penalty_below_threshold(self, tiny_db):
        model = TransferModel(wide_threshold=99)
        conn = Connection(tiny_db, CostModel(), model)
        scan = Scan(tiny_db.schema.table("Supplier"), "s")
        row = [(1, "a", "b", 2)]
        assert conn._transfer_cost(scan.columns(), row, False) == pytest.approx(
            conn._transfer_cost(scan.columns(), row, True)
        )


def _reference_row_cost(model, columns, compact_rows):
    """The per-row transfer charge as first written: one width call and
    one ``field_ms + width * byte_ms`` per non-NULL field."""
    width_fns = [width_function(col.sql_type) for col in columns]
    wide = not compact_rows and len(columns) > model.wide_threshold
    wide_factor = 1.0 + model.wide_row_factor * (
        len(columns) - model.wide_threshold
    )

    def cost(row):
        ms = model.row_ms
        for fn, value in zip(width_fns, row):
            if value is None:
                ms += model.null_field_ms
            else:
                ms += model.field_ms + fn(value) * model.byte_ms
        if wide:
            ms *= wide_factor
        return ms

    return cost


_VALUES = {
    SqlType.INTEGER: st.integers(-10 ** 6, 10 ** 6),
    SqlType.DECIMAL: st.floats(allow_nan=False, allow_infinity=False),
    SqlType.VARCHAR: st.text(max_size=30),
    SqlType.CHAR: st.text(max_size=3),
    SqlType.DATE: st.dates(),
}
_COEFFICIENT = st.floats(1e-4, 2.0, allow_nan=False)


@st.composite
def _rows_under_a_model(draw):
    model = TransferModel(
        row_ms=draw(_COEFFICIENT), field_ms=draw(_COEFFICIENT),
        byte_ms=draw(_COEFFICIENT), null_field_ms=draw(_COEFFICIENT),
        wide_threshold=draw(st.integers(0, 12)),
        wide_row_factor=draw(_COEFFICIENT),
    )
    types = draw(st.lists(st.sampled_from(list(SqlType)), max_size=16))
    columns = [ColumnInfo(f"c{i}", t) for i, t in enumerate(types)]
    row = st.tuples(*(st.none() | _VALUES[t] for t in types))
    rows = draw(st.lists(row, max_size=30))
    return model, columns, rows, draw(st.booleans())


class TestTransferCharge:
    """Both generated forms of the transfer charge — the per-row lambda a
    cursor adds up and the left fold over a result's rows — equal the
    per-field formula to the last bit."""

    @given(_rows_under_a_model())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_field_formula(self, tiny_db, case):
        model, columns, rows, compact = case
        conn = Connection(tiny_db, CostModel(), model)
        reference = _reference_row_cost(model, columns, compact)
        row_cost = conn._row_cost_fn(columns, compact)
        total = 0.0
        for row in rows:
            assert row_cost(row) == reference(row)
            total += reference(row)
        assert conn._transfer_cost(columns, rows, compact) == total

    def test_total_is_a_left_fold_not_a_compensated_sum(self, tiny_db):
        """One 1e16 ms row, then NULL rows of 0.262 ms: each of those
        rounds away against 1e16 when added left to right, as the cursor
        adds them.  A compensated sum (``math.fsum``; ``sum`` on Python
        3.12 and later) keeps them and lands 2 ms higher."""
        conn = Connection(tiny_db, CostModel(), TransferModel(byte_ms=1e16))
        columns = [ColumnInfo("c0", SqlType.VARCHAR)]
        rows = [("a",)] + [(None,)] * 8
        row_cost = conn._row_cost_fn(columns, True)
        assert conn._transfer_cost(columns, rows, True) == 1e16
        assert math.fsum(map(row_cost, rows)) == 1e16 + 2

    def test_recompiled_after_eviction_to_the_bit(self, tiny_db):
        """More shapes than the code cache holds: the first one is
        evicted, and compiled again it charges the same floats."""
        conn = Connection(tiny_db, CostModel())
        types = [SqlType.INTEGER, SqlType.VARCHAR, SqlType.DATE]
        first = [ColumnInfo(f"c{i}", t) for i, t in enumerate(types)]
        rows = [(1, "abc", None), (None, "", None)]
        before = ([conn._row_cost_fn(first, False)(r) for r in rows],
                  conn._transfer_cost(first, rows, False))
        column = [ColumnInfo("d", SqlType.CHAR)]
        for i in range(CODE.max_entries + 1):
            Connection(tiny_db, CostModel(), TransferModel(
                row_ms=1.0 + i))._transfer_cost(column, [], True)
        for form in ("row", "rows"):
            key = ("transfer", conn.transfer_model, tuple(types), False, form)
            assert CODE.peek(key) is None
        after = ([conn._row_cost_fn(first, False)(r) for r in rows],
                 conn._transfer_cost(first, rows, False))
        assert after == before

    @pytest.mark.parametrize("style", list(PlanStyle))
    def test_cursor_total_equals_materialized_total(self, q1_tree, tiny_db,
                                                    style):
        """Outer-join rows are wide and not compact; outer-union rows are
        compact and full of NULLs."""
        [spec] = SqlGenerator(q1_tree, tiny_db.schema, style=style) \
            .streams_for_partition(unified_partition(q1_tree))
        assert len(spec.column_names) > TransferModel().wide_threshold
        conn = Connection(tiny_db, CostModel())
        stream = conn.execute(spec.plan, compact_rows=spec.compact)
        cursor = conn.execute_iter(spec.plan, compact_rows=spec.compact)
        assert list(cursor) == stream.rows
        assert cursor.transfer_ms == stream.transfer_ms
        assert stream.transfer_ms == conn._transfer_cost(
            stream.columns, stream.rows, spec.compact)


class TestSourceDescription:
    def test_defaults_permit_everything(self):
        SourceDescription().check_plan_features(True, True)

    def test_outer_join_gate(self):
        source = SourceDescription(supports_left_outer_join=False)
        with pytest.raises(PlanError, match="OUTER JOIN"):
            source.check_plan_features(True, False)
        source.check_plan_features(False, True)

    def test_union_gate(self):
        source = SourceDescription(supports_union=False)
        with pytest.raises(PlanError, match="UNION"):
            source.check_plan_features(False, True)
        source.check_plan_features(True, False)
