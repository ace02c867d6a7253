"""The paper's worked example, end to end (Figs. 3-box, 4, 8, 9, 10).

Recreates the exact database instance of Fig. 8 (suppliers supp#1..supp#3,
their nations, and three stocked parts), runs the *simplified boxed query*
of Fig. 3, and checks:

* the view tree of Fig. 4 — S1(suppkey), S1.1(suppkey, name),
  S1.2(suppkey, pname), with the Sec. 3.1 argument simplification,
* the result XML fragment of Fig. 8 (supp#2 appears despite having no
  parts — the reason the outer join exists),
* the integrated relation of Fig. 9 for the unified plan (a),
* the two partitioned relations of Fig. 10 for plan (c).

One documented divergence: the paper's example sorts only by ``suppkey``
(its Fig. 9 lists parts in insertion order), while our generator sorts by
the full interleaved key, so parts appear alphabetically.
"""

import pytest

from repro.core.labeling import label_view_tree
from repro.core.partition import Partition, unified_partition
from repro.core.sqlgen import SqlGenerator
from repro.core.viewtree import build_view_tree
from repro.relational.connection import Connection
from repro.relational.database import Database
from repro.relational.engine import CostModel
from repro.relational.schema import (
    Column,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
)
from repro.relational.types import SqlType
from repro.rxl.parser import parse_rxl
from repro.xmlgen.tagger import tag_streams

#: The boxed query fragment of Fig. 3.
BOXED_QUERY = """
from Supplier $s
construct
  <supplier>
    { from Nation $n
      where $s.nationkey = $n.nationkey
      construct <nation>$n.name</nation> }
    { from PartSupp $ps, Part $p
      where $s.suppkey = $ps.suppkey and $ps.partkey = $p.partkey
      construct <part>$p.name</part> }
  </supplier>
"""


@pytest.fixture(scope="module")
def fig8_db():
    """The Fig. 8 database instance, with the paper's string keys."""
    varchar = SqlType.VARCHAR
    integer = SqlType.INTEGER
    schema = DatabaseSchema(
        tables=[
            TableSchema(
                "Supplier",
                [Column("suppkey", varchar), Column("name", varchar),
                 Column("addr", varchar), Column("nationkey", varchar)],
                key=["suppkey"],
            ),
            TableSchema(
                "Nation",
                [Column("nationkey", varchar), Column("name", varchar),
                 Column("regionkey", varchar)],
                key=["nationkey"],
                unique_sets=[("name",)],
            ),
            TableSchema(
                "PartSupp",
                [Column("partkey", varchar), Column("suppkey", varchar),
                 Column("availqty", integer)],
                key=["partkey"],
            ),
            TableSchema(
                "Part",
                [Column("partkey", varchar), Column("name", varchar),
                 Column("mfgr", varchar), Column("brand", varchar),
                 Column("size", varchar), Column("retail", SqlType.DECIMAL)],
                key=["partkey"],
                unique_sets=[("name",)],
            ),
        ],
        foreign_keys=[
            ForeignKey("Supplier", ("nationkey",), "Nation", ("nationkey",)),
            ForeignKey("PartSupp", ("suppkey",), "Supplier", ("suppkey",)),
            ForeignKey("PartSupp", ("partkey",), "Part", ("partkey",)),
        ],
    )
    db = Database(schema)
    db.insert("Supplier", "supp#1", "USA Metalworks", "New York", "usa#24")
    db.insert("Supplier", "supp#2", "Romana Espanola", "Madrid", "spain#3")
    db.insert("Supplier", "supp#3", "Fonderie Francais", "Paris", "france#19")
    db.insert("Nation", "usa#24", "USA", "reg#1")
    db.insert("Nation", "spain#3", "Spain", "reg#2")
    db.insert("Nation", "france#19", "France", "reg#3")
    db.insert("PartSupp", "part#4", "supp#1", 100)
    db.insert("PartSupp", "part#12", "supp#1", 320)
    db.insert("PartSupp", "part#20", "supp#3", 64)
    db.insert("Part", "part#4", "plated brass", "mfgr#3", "Brand1", "S", 904.00)
    db.insert("Part", "part#12", "anodized steel", "mfgr#4", "Brand2", "M", 912.01)
    db.insert("Part", "part#20", "polished nickel", "mfgr#1", "Brand3", "L", 920.02)
    db.check_foreign_keys()
    db.analyze()
    return db


@pytest.fixture(scope="module")
def fig4_tree(fig8_db):
    """Fig. 4's view tree, with the Sec. 3.1 argument simplification."""
    tree = build_view_tree(
        parse_rxl(BOXED_QUERY), fig8_db.schema, simplify_args=True
    )
    label_view_tree(tree, fig8_db.schema)
    return tree


@pytest.fixture(scope="module")
def fig8_conn(fig8_db):
    return Connection(fig8_db, CostModel())


class TestFig4ViewTree:
    def test_three_nodes(self, fig4_tree):
        assert [n.sfi for n in fig4_tree.nodes] == ["S1", "S1.1", "S1.2"]
        assert [n.tag for n in fig4_tree.nodes] == [
            "supplier", "nation", "part"
        ]

    def test_skolem_terms(self, fig4_tree):
        """S1(suppkey(1,1)); S1.1(suppkey(1,1), name(2,1));
        S1.2(suppkey(1,1), pname(2,2)) — exactly Fig. 4."""
        args = {n.sfi: [(a.level, a.ordinal, a.field_hint)
                        for a in n.args] for n in fig4_tree.nodes}
        assert args["S1"] == [(1, 1, "suppkey")]
        assert args["S1.1"] == [(1, 1, "suppkey"), (2, 1, "name")]
        assert args["S1.2"] == [(1, 1, "suppkey"), (2, 2, "name")]

    def test_rules_match_fig4(self, fig4_tree):
        """S1.1 :- Supplier, Nation;  S1.2 :- Supplier, PartSupp, Part."""
        nation = fig4_tree.node((1, 1)).rules[0]
        assert [t for t, _ in nation.atoms] == ["Supplier", "Nation"]
        part = fig4_tree.node((1, 2)).rules[0]
        assert [t for t, _ in part.atoms] == ["Supplier", "PartSupp", "Part"]

    def test_multiplicities(self, fig4_tree):
        """Fig. 4/5: nation is '1', part is '*' — "the 1 between supplier
        and nation indicates ... exactly one child"."""
        assert fig4_tree.node((1, 1)).label == "1"
        assert fig4_tree.node((1, 2)).label == "*"


class TestFig8Document:
    def _materialize(self, tree, db, conn, partition):
        generator = SqlGenerator(tree, db.schema)
        specs = generator.streams_for_partition(partition)
        streams = [conn.execute(s.plan) for s in specs]
        xml, tagger = tag_streams(tree, specs, streams, root_tag=None)
        return xml, tagger

    def test_result_fragment(self, fig4_tree, fig8_db, fig8_conn):
        xml, _ = self._materialize(
            fig4_tree, fig8_db, fig8_conn, unified_partition(fig4_tree)
        )
        assert xml == (
            "<supplier><nation>USA</nation>"
            "<part>anodized steel</part><part>plated brass</part></supplier>"
            "<supplier><nation>Spain</nation></supplier>"
            "<supplier><nation>France</nation>"
            "<part>polished nickel</part></supplier>"
        )

    def test_supp2_appears_without_parts(self, fig4_tree, fig8_db, fig8_conn):
        """Sec. 2: "there could be suppliers without parts, and they need
        to appear in the XML document" — the reason for the outer join."""
        for partition in (unified_partition(fig4_tree),
                          Partition([(1, 2)])):
            xml, _ = self._materialize(fig4_tree, fig8_db, fig8_conn, partition)
            assert "<supplier><nation>Spain</nation></supplier>" in xml


class TestFig9IntegratedRelation:
    def test_unified_rows(self, fig4_tree, fig8_db, fig8_conn):
        """Plan (a)'s relation: (L1, L2, suppkey, name, pname), one row per
        path, NULL-padded — Fig. 9 (parts alphabetical, see module doc)."""
        generator = SqlGenerator(fig4_tree, fig8_db.schema)
        [spec] = generator.streams_for_partition(unified_partition(fig4_tree))
        assert spec.column_names == (
            "L1", "L2", "v1_1_suppkey", "v2_1_name", "v2_2_name"
        )
        rows = fig8_conn.execute(spec.plan).rows
        assert rows == [
            (1, 1, "supp#1", "USA", None),
            (1, 2, "supp#1", None, "anodized steel"),
            (1, 2, "supp#1", None, "plated brass"),
            (1, 1, "supp#2", "Spain", None),
            (1, 1, "supp#3", "France", None),
            (1, 2, "supp#3", None, "polished nickel"),
        ]


class TestFig10PartitionedRelations:
    def test_plan_c_relations(self, fig4_tree, fig8_db, fig8_conn):
        """Plan (c): the nation node alone, and supplier+part together.
        The supplier-part relation keeps supp#2 as a bare row (Fig. 10)."""
        plan_c = Partition([(1, 2)])  # keep only the supplier-part edge
        generator = SqlGenerator(fig4_tree, fig8_db.schema)
        specs = generator.streams_for_partition(plan_c)
        by_label = {s.label: s for s in specs}

        supplier_part = fig8_conn.execute(by_label["S1"].plan).rows
        assert by_label["S1"].column_names == (
            "L1", "L2", "v1_1_suppkey", "v2_2_name"
        )
        assert supplier_part == [
            (1, 2, "supp#1", "anodized steel"),
            (1, 2, "supp#1", "plated brass"),
            (1, None, "supp#2", None),          # bare row: no parts
            (1, 2, "supp#3", "polished nickel"),
        ]

        nation = fig8_conn.execute(by_label["S1.1"].plan).rows
        assert by_label["S1.1"].column_names == (
            "L1", "L2", "v1_1_suppkey", "v2_1_name"
        )
        assert nation == [
            (1, 1, "supp#1", "USA"),
            (1, 1, "supp#2", "Spain"),
            (1, 1, "supp#3", "France"),
        ]


class TestSec2PlanBQueries:
    def test_plan_b_sql_shape(self, fig4_tree, fig8_db):
        """Sec. 2's plan (b): two SQL queries, neither needing an outer
        join — "no outer join is needed, because the first query produces
        all the values for Supplier".  The generator achieves this through
        view-tree reduction (footnote 2: the per-node outer join
        "disappears when all children are labeled '1'")."""
        plan_b = Partition([(1, 1)])  # supplier+nation together, part apart
        generator = SqlGenerator(fig4_tree, fig8_db.schema, reduce=True)
        specs = generator.streams_for_partition(plan_b)
        assert len(specs) == 2
        assert not any(s.uses_outer_join() for s in specs)
        first, second = specs[0].sql, specs[1].sql
        assert "Supplier s, Nation n" in first
        assert "s.nationkey = n.nationkey" in first
        assert "PartSupp" in second and "Part" in second
        assert "ORDER BY" in first and "ORDER BY" in second
