"""Regenerate the Sec. 7 virtual-view table.

    PYTHONPATH=src python3 benchmarks/virtual_views.py           # rewrite it
    PYTHONPATH=src python3 benchmarks/virtual_views.py --print   # only print

Sec. 7 (after its ref. [5]): a user who wants only part of the XML view
asks it an XML-QL query, and the view stays *virtual* — the query is
composed with the view definition (``repro.xmlql.compose``) into a small
view of its own, which ``XmlView.query`` materializes through the same
pipeline as any view.  The alternative is to materialize the whole view
(its greedy plan, what ``materialize()`` runs by default) and filter the
document.  Per view (Query 1, Query 2), scale (Configuration A at sf1 and
sf3) and pattern (a selective one, supplier names, and one that reads most
of the view, order key + customer), the table reports the bindings and
the simulated ms of both, on one connection per scale without a result
cache.  The filtered document must hold exactly the composed
document's bindings, or the script fails.  Simulated ms are
deterministic: the table is committed
(``benchmarks/results/virtual_views.txt``) and diffed by CI (≈ 1 s).
"""

import argparse
import dataclasses
import pathlib
import sys
from xml.etree import ElementTree

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(REPO_ROOT / "src"))

from repro.bench.queries import QUERY_1, QUERY_2  # noqa: E402
from repro.core.silkroute import SilkRoute  # noqa: E402
from repro.tpch.configs import CONFIG_A, build_configuration  # noqa: E402
from repro.tpch.generator import TpchScale  # noqa: E402

RESULT = REPO_ROOT / "benchmarks" / "results" / "virtual_views.txt"

QUERIES = {"Query 1": QUERY_1, "Query 2": QUERY_2}
SCALES = {"sf1": CONFIG_A,
          "sf3": dataclasses.replace(CONFIG_A, scale=TpchScale().scaled(3))}


def texts(element, *tags):
    return tuple(element.find(tag).text for tag in tags)


#: name -> (XML-QL query, the same bindings filtered from the whole view's
#: document).  Each template writes one element per binding, its
#: variables as children in pattern order.
PATTERNS = {
    "supplier names": (
        "where <supplier><name>$s</name></supplier> "
        "construct <b><s>$s</s></b>",
        lambda view: {texts(s, "name") for s in view.iter("supplier")}),
    "order key + customer": (
        "where <order><okey>$k</okey><customer>$c</customer></order> "
        "construct <b><k>$k</k><c>$c</c></b>",
        lambda view: {texts(o, "okey", "customer")
                      for o in view.iter("order")}),
}


def measure():
    """One row per (view, scale, pattern): bindings, then streams and
    simulated ms of the composed view and of the whole view."""
    rows = []
    for scale, config in SCALES.items():
        _, connection, estimator = build_configuration(config)
        for qname, rxl in QUERIES.items():
            whole = SilkRoute(connection, estimator=estimator).define_view(
                rxl).materialize()
            document = ElementTree.fromstring(whole.xml)
            for pname, (xmlql, filtered) in PATTERNS.items():
                composed = SilkRoute(
                    connection, estimator=estimator).define_view(rxl).query(
                        xmlql)
                bindings = [tuple(child.text for child in element)
                            for element in ElementTree.fromstring(
                                composed.xml)]
                if set(bindings) != filtered(document) or (
                        len(set(bindings)) != len(bindings)):
                    raise SystemExit(f"{qname} {scale} {pname}: the composed "
                                     "view's bindings are not the filter's")
                rows.append((qname, scale, pname, len(bindings),
                             composed.report, whole.report))
    return rows


def render(rows):
    out = ["Simulated ms, Configuration A cost model; the whole view under "
           "its greedy plan, then filtered (filtering costs no simulated "
           "time).", "",
           "| view | scale | pattern | bindings | composed: streams | "
           "composed: query + transfer ms | whole view: streams | "
           "whole view: query + transfer ms | whole / composed |",
           "|" + " --- |" * 9]
    for qname, scale, pname, bindings, composed, whole in rows:
        out.append(
            f"| {qname} | {scale} | {pname} | {bindings:,} | "
            f"{composed.n_streams} | {composed.query_ms:,.2f} + "
            f"{composed.transfer_ms:,.2f} = {composed.total_ms:,.2f} | "
            f"{whole.n_streams} | {whole.query_ms:,.2f} + "
            f"{whole.transfer_ms:,.2f} = {whole.total_ms:,.2f} | "
            f"{whole.total_ms / composed.total_ms:.1f}x |")
    return "\n".join(out)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--print", action="store_true", dest="print_only",
                        help="print the table; rewrite nothing")
    args = parser.parse_args(argv)
    rendered = render(measure())
    print(rendered)
    if not args.print_only:
        RESULT.write_text(rendered + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
