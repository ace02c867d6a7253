"""Tests for SQL value types (repro.relational.types)."""

import datetime
import math

import pytest

from repro.relational.types import SqlType, sql_literal


class TestAccepts:
    def test_integer(self):
        assert SqlType.INTEGER.accepts(5)
        assert not SqlType.INTEGER.accepts(5.0)
        assert not SqlType.INTEGER.accepts("5")
        assert not SqlType.INTEGER.accepts(True)  # bools are not integers

    def test_decimal_accepts_int_and_float(self):
        assert SqlType.DECIMAL.accepts(5)
        assert SqlType.DECIMAL.accepts(5.5)
        assert not SqlType.DECIMAL.accepts(True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_decimal_is_finite(self, value):
        """NaN would make ``ORDER BY`` non-total (and the engines
        disagree), and no non-finite float has a SQL literal."""
        assert not SqlType.DECIMAL.accepts(value)
        with pytest.raises(ValueError):
            SqlType.DECIMAL.to_sql_literal(value)

    def test_strings(self):
        assert SqlType.VARCHAR.accepts("x")
        assert SqlType.CHAR.accepts("x")
        assert not SqlType.VARCHAR.accepts(5)

    def test_date(self):
        assert SqlType.DATE.accepts(datetime.date(2001, 5, 21))
        assert not SqlType.DATE.accepts("2001-05-21")


class TestWidths:
    def test_storage_widths(self):
        assert SqlType.INTEGER.storage_width == 4
        assert SqlType.DECIMAL.storage_width == 8

    def test_value_width_null_is_zero(self):
        assert SqlType.INTEGER.value_width(None) == 0

    def test_varchar_width_is_length(self):
        assert SqlType.VARCHAR.value_width("hello") == 5

    def test_fixed_width(self):
        assert SqlType.INTEGER.value_width(123456) == 4


class TestLiterals:
    def test_null(self):
        assert SqlType.VARCHAR.to_sql_literal(None) == "NULL"

    def test_integer(self):
        assert SqlType.INTEGER.to_sql_literal(42) == "42"

    def test_string_escaping(self):
        assert SqlType.VARCHAR.to_sql_literal("O'Brien") == "'O''Brien'"

    def test_date_literal(self):
        lit = SqlType.DATE.to_sql_literal(datetime.date(2001, 5, 21))
        assert lit == "DATE '2001-05-21'"

    def test_sql_literal_inference(self):
        assert sql_literal(1) == "1"
        assert sql_literal("a") == "'a'"
        assert sql_literal(None) == "NULL"
        assert sql_literal(datetime.date(2000, 1, 1)).startswith("DATE ")

    def test_sql_literal_rejects_bool(self):
        with pytest.raises(TypeError):
            sql_literal(True)

    def test_sql_literal_rejects_unknown(self):
        with pytest.raises(TypeError):
            sql_literal(object())
