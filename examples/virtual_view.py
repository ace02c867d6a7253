"""Virtual views: query XML that is never materialized (Sec. 7).

Most of the time users don't want the entire exported document — they ask
small questions against the XML view.  SilkRoute keeps the view *virtual*:
an XML-QL query is composed with the RXL view definition into a small view
of its own, usually one simple SQL query over the base tables, materialized
like any view.  This example contrasts that with
materializing the whole view first.  Run::

    python examples/virtual_view.py
"""

from repro import Session
from repro.bench.queries import QUERY_1
from repro.tpch import CONFIG_A, build_configuration
from repro.xmlql import compose, parse_xmlql

IRANIAN_SALES = """
where <supplier>
        <nation>"IRAN"</nation>
        <name>$s</name>
        <part>
          <pname>$p</pname>
          <order><customer>$c</customer></order>
        </part>
      </supplier>
construct
  <sale><supplier>$s</supplier><part>$p</part><buyer>$c</buyer></sale>
"""

CHEAP_LOOKUP = """
where <supplier><name>$s</name><region>$r</region></supplier>,
      $r = "EUROPE"
construct <european>$s</european>
"""


def main():
    database, connection, estimator = build_configuration(CONFIG_A)
    session = Session(connection, estimator=estimator)
    view = session.view(QUERY_1)

    print("=== fragment query: Iranian suppliers' sales ===")
    result = view.query(IRANIAN_SALES, root_tag="sales", indent=2)
    print(result.xml[:600], "...\n" if len(result.xml) > 600 else "")
    report = result.report
    print(f"{report.n_streams} stream(s), {report.query_ms:.1f}ms query + "
          f"{report.transfer_ms:.1f}ms transfer simulated; the composed "
          "view and its SQL:\n")
    composed = compose(parse_xmlql(IRANIAN_SALES), view.tree)
    print(composed, "\n")
    print("\n".join(session.view(composed).explain(report.partition,
                                                    reduce=True)))

    print("\n=== fragment query: European suppliers ===")
    result2 = view.query(CHEAP_LOOKUP, root_tag="names")
    print(result2.xml)

    print("\n=== the same questions against the materialized view ===")
    materialized = session.materialize(QUERY_1, root_tag="view")
    print(
        f"materializing everything: {materialized.report.total_ms:.0f}ms "
        f"simulated for {len(materialized.xml)} characters of XML,\n"
        f"vs {result.report.total_ms:.0f}ms and "
        f"{result2.report.total_ms:.0f}ms for the virtual fragment queries."
    )


if __name__ == "__main__":
    main()
