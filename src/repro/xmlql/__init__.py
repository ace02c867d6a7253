"""XML-QL queries over virtual RXL views (the paper's Sec. 7 scenario).

    "the outer-union plan may also be appropriate when a user query
    requests only a subset of the XML view, and the result document is
    small.  ...  This scenario is considered in [5], where the XML view of
    the database is virtual, and users query it using XML-QL."

In the virtual-view mode, a user's XML-QL query pattern-matches against
the XML view *without materializing it*: SilkRoute composes the pattern
with the view definition and sends one (usually simple) SQL query to the
RDBMS.  This package implements that mode for a practical XML-QL subset:

* tree patterns with text variables ``$v`` and literal text matches,
* ``where``-clause conditions comparing variables to literals,
* a ``construct`` template, whose elements may name Skolem terms
  (``ID=S($s)``) to group.

Composition (``repro.xmlql.compose``) aligns the pattern with the view
tree by tag, conjoins the matched nodes' datalog rules (correlation comes
from their shared body atoms), adds the conditions to their ``where`` list
and writes the result as an RXL view with the template as its construct
clause; :meth:`repro.core.silkroute.XmlView.query` materializes that view
through the one pipeline every view takes.
"""

from repro.xmlql.ast import PatternElement, XmlQlQuery, ConstructNode
from repro.xmlql.parser import parse_xmlql
from repro.xmlql.compose import compose

__all__ = [
    "PatternElement",
    "XmlQlQuery",
    "ConstructNode",
    "parse_xmlql",
    "compose",
]
