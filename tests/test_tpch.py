"""Tests for the TPC-H substrate (repro.tpch)."""


from repro.relational.engine import CONFIG_A_COST_MODEL, CONFIG_B_COST_MODEL
from repro.tpch.configs import CONFIG_A, CONFIG_B, build_configuration
from repro.tpch.generator import TpchGenerator, TpchScale
from repro.tpch.schema import TPCH_TABLE_NAMES, tpch_schema


class TestSchema:
    def test_tables_present(self):
        schema = tpch_schema()
        assert set(schema.table_names) == set(TPCH_TABLE_NAMES)

    def test_paper_keys(self):
        """Fig. 1's literal key declarations."""
        schema = tpch_schema()
        assert schema.table("PartSupp").key == ("partkey",)
        assert schema.table("LineItem").key == ("orderkey",)
        assert schema.table("Supplier").key == ("suppkey",)

    def test_name_candidate_keys(self):
        schema = tpch_schema()
        for table in ("Region", "Nation", "Supplier", "Part", "Customer"):
            assert ("name",) in schema.table(table).unique_sets

    def test_foreign_keys(self):
        schema = tpch_schema()
        from_lineitem = schema.foreign_keys_from("LineItem")
        targets = {fk.ref_table for fk in from_lineitem}
        assert targets == {"Orders", "Part", "Supplier", "PartSupp"}


class TestGenerator:
    def test_deterministic(self):
        scale = TpchScale(suppliers=5, parts=10, customers=6, orders=12)
        a = TpchGenerator(scale=scale, seed=7).generate()
        b = TpchGenerator(scale=scale, seed=7).generate()
        for name in TPCH_TABLE_NAMES:
            assert a.table(name).rows == b.table(name).rows

    def test_seed_changes_data(self):
        scale = TpchScale(suppliers=5, parts=10, customers=6, orders=12)
        a = TpchGenerator(scale=scale, seed=7).generate()
        b = TpchGenerator(scale=scale, seed=8).generate()
        assert a.table("Orders").rows != b.table("Orders").rows

    def test_cardinalities(self, tiny_db):
        assert len(tiny_db.table("Supplier")) == 8
        assert len(tiny_db.table("Part")) == 16
        assert len(tiny_db.table("PartSupp")) == 16  # one supplier per part
        assert len(tiny_db.table("LineItem")) == 40  # one line per order
        assert len(tiny_db.table("Orders")) == 40

    def test_foreign_keys_hold(self, tiny_db):
        assert tiny_db.check_foreign_keys() > 0

    def test_some_suppliers_without_parts(self, tiny_db):
        stocked = {r[1] for r in tiny_db.table("PartSupp").rows}
        all_suppliers = {r[0] for r in tiny_db.table("Supplier").rows}
        assert stocked < all_suppliers

    def test_some_parts_without_orders(self, tiny_db):
        ordered = {r[1] for r in tiny_db.table("LineItem").rows}
        all_parts = {r[0] for r in tiny_db.table("Part").rows}
        assert ordered < all_parts

    def test_lineitem_supplier_consistent_with_partsupp(self, tiny_db):
        supplier_of = {r[0]: r[1] for r in tiny_db.table("PartSupp").rows}
        for row in tiny_db.table("LineItem").rows:
            assert supplier_of[row[1]] == row[2]

    def test_stats_precomputed(self, tiny_db):
        assert tiny_db.stats("Supplier").row_count == 8

    def test_scaled(self):
        base = TpchScale()
        scaled = base.scaled(2.0)
        assert scaled.suppliers == 2 * base.suppliers
        assert scaled.regions == base.regions  # fixed tables don't scale
        assert scaled.nations == base.nations

    def test_scaled_minimums(self):
        tiny = TpchScale().scaled(0.0001)
        assert tiny.suppliers >= 2


class TestConfigs:
    def test_config_b_larger(self):
        assert CONFIG_B.scale.orders == 25 * CONFIG_A.scale.orders

    def test_config_a_server_slower(self):
        assert CONFIG_A.cost_model.speed > CONFIG_B.cost_model.speed
        assert CONFIG_A.cost_model is CONFIG_A_COST_MODEL
        assert CONFIG_B.cost_model is CONFIG_B_COST_MODEL

    def test_subquery_budget_is_five_minutes(self):
        assert CONFIG_A.subquery_budget_ms == 300_000.0

    def test_build_configuration(self):
        scale = TpchScale(suppliers=4, parts=8, customers=4, orders=8)
        from dataclasses import replace
        config = replace(CONFIG_A, scale=scale)
        db, conn, est = build_configuration(config)
        assert db is conn.database
        assert est.database is db
        assert conn.engine.cost_model is config.cost_model
