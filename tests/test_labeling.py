"""Tests for edge multiplicity labeling (repro.core.labeling)."""


from repro.core.labeling import body_fds, edge_label, label_view_tree
from repro.core.viewtree import build_view_tree
from repro.relational.dependencies import attribute_closure
from repro.rxl.parser import parse_rxl


class TestQuery1Labels:
    """Fig. 6: supplier's name/nation/region edges are '1', part is '*';
    part's pname is '1', order is '*'; order's children are all '1'."""

    def test_labels(self, q1_tree):
        labels = {n.sfi: n.label for n in q1_tree.nodes if n.parent}
        assert labels == {
            "S1.1": "1", "S1.2": "1", "S1.3": "1", "S1.4": "*",
            "S1.4.1": "1", "S1.4.2": "*",
            "S1.4.2.1": "1", "S1.4.2.2": "1", "S1.4.2.3": "1",
        }

    def test_root_unlabeled(self, q1_tree):
        assert q1_tree.root.label is None


class TestQuery2Labels:
    def test_labels(self, q2_tree):
        labels = {n.sfi: n.label for n in q2_tree.nodes if n.parent}
        assert labels == {
            "S1.1": "1", "S1.2": "1", "S1.3": "1",
            "S1.4": "*", "S1.5": "*",
            "S1.4.1": "1",
            "S1.5.1": "1", "S1.5.2": "1", "S1.5.3": "1",
        }


def _tree(schema, text):
    tree = build_view_tree(parse_rxl(text), schema)
    label_view_tree(tree, schema)
    return tree


class TestConditionCases:
    def test_question_mark_when_fk_nullable(self, schema):
        """C1 without C2: joining through a non-enforced path gives '?'."""
        # Region has no FK guaranteeing a nation exists for it; the child
        # query Region ⋈ Nation on regionkey is 0..N per region, but with a
        # filter pinning nationkey it is 0..1 -> '?'.
        tree = _tree(
            schema,
            "from Region $r construct <region>"
            "{ from Nation $n where $r.regionkey = $n.regionkey "
            "and $n.nationkey = 1 construct <nation>$n.name</nation> }"
            "</region>",
        )
        assert tree.node((1, 1)).label == "?"

    def test_plus_when_inclusion_without_fd(self, schema):
        """C2 without C1 — every part has a PartSupp row (FK from PartSupp
        is the wrong direction), so craft it via LineItem -> Orders: every
        line item has exactly one order; orders per customer are many."""
        tree = _tree(
            schema,
            "from Customer $c construct <customer>"
            "{ from Orders $o where $c.custkey = $o.custkey "
            "construct <order>$o.orderkey</order> }"
            "</customer>",
        )
        # customer -> order: no FD (many orders), no inclusion (customers
        # may have no orders): '*'
        assert tree.node((1, 1)).label == "*"

    def test_one_label_for_fk_path(self, schema):
        tree = _tree(
            schema,
            "from Orders $o construct <order>"
            "{ from Customer $c where $o.custkey = $c.custkey "
            "construct <customer>$c.name</customer> }"
            "</order>",
        )
        # orders.custkey is a NOT NULL enforced FK: exactly one customer.
        assert tree.node((1, 1)).label == "1"

    def test_extra_filter_breaks_c2(self, schema):
        tree = _tree(
            schema,
            "from Orders $o construct <order>"
            "{ from Customer $c where $o.custkey = $c.custkey "
            'and $c.name = "Customer#000001" '
            "construct <customer>$c.name</customer> }"
            "</order>",
        )
        # The filter can eliminate the customer: '?' not '1'.
        assert tree.node((1, 1)).label == "?"

    def test_same_body_child_is_one(self, schema):
        tree = _tree(
            schema,
            "from Supplier $s construct <supplier><name>$s.name</name>"
            "</supplier>",
        )
        assert tree.node((1, 1)).label == "1"

    def test_non_fk_join_breaks_c2(self, schema):
        # Join Supplier to Customer on nationkey: same-nation customers.
        tree = _tree(
            schema,
            "from Supplier $s construct <supplier>"
            "{ from Customer $c where $s.nationkey = $c.nationkey "
            "construct <customer>$c.name</customer> }"
            "</supplier>",
        )
        assert tree.node((1, 1)).label == "*"

    def test_fk_not_enforced_downgrades(self, schema):
        tree = _tree(
            schema,
            "from Orders $o construct <order>"
            "{ from Customer $c where $o.custkey = $c.custkey "
            "construct <customer>$c.name</customer> }"
            "</order>",
        )
        parent, child = tree.root, tree.node((1, 1))
        assert edge_label(parent, child, schema, assume_fk_enforced=True) == "1"
        assert edge_label(parent, child, schema, assume_fk_enforced=False) == "?"

    def test_fused_nodes_conservative(self, schema):
        tree = _tree(
            schema,
            "from Region $r construct <doc>"
            "{ from Supplier $s construct <who ID=W($s.name)>$s.name</who> }"
            "{ from Customer $c construct <who ID=W($c.name)>$c.name</who> }"
            "</doc>",
        )
        label_view_tree(tree, schema)
        [who] = [n for n in tree.nodes if n.tag == "who"]
        assert who.label == "*"

    def test_label_view_tree_returns_map(self, schema, q1_tree):
        labels = label_view_tree(q1_tree, schema)
        assert labels["S1.4"] == "*"
        assert len(labels) == 9


class TestBodyFds:
    def test_key_fd_derived(self, schema, q1_tree):
        rule = q1_tree.node((1, 2)).rules[0]  # Supplier ⋈ Nation
        fds = body_fds(rule, schema)
        closure = attribute_closure(["s.suppkey"], fds)
        assert "n.name" in closure  # suppkey -> nationkey -> name

    def test_unique_set_fd_derived(self, schema, q1_tree):
        rule = q1_tree.node((1, 2)).rules[0]
        fds = body_fds(rule, schema)
        closure = attribute_closure(["n.name"], fds)
        assert "n.nationkey" in closure  # name is a candidate key

    def test_equality_fds_bidirectional(self, schema, q1_tree):
        rule = q1_tree.node((1, 2)).rules[0]
        fds = body_fds(rule, schema)
        assert "n.nationkey" in attribute_closure(["s.nationkey"], fds)
        assert "s.nationkey" in attribute_closure(["n.nationkey"], fds)
