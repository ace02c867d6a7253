"""Golden documents: Query 1 and Query 2, pinned by SHA-256 and length.

Every plan of a view materializes the identical document, and the perf
harness checks exports against a tuple-*engine* reference that runs through
the same ``repro.xmlgen`` code — so a bug in decode → merge → tag would pass
both.  These digests were recorded on the commit *before* the compiled
decoder (PR 12) and must never move: a change to ``repro.xmlgen`` is correct
only if it reproduces them byte for byte, for every plan shape, with and
without reduction, in both plan styles, compact and indented, on the
buffered and on the streaming path.

To re-record after an intended change of the document format, run this file
as a script on the reference commit (``PYTHONPATH=src python
tests/test_xmlgen_golden.py``) and paste the table it prints.
"""

import dataclasses
import hashlib

import pytest

from repro import Session
from repro.bench.queries import QUERY_1, QUERY_2
from repro.core.sqlgen import PlanStyle
from repro.relational.connection import Connection
from repro.tpch.configs import CONFIG_A, build_database
from repro.tpch.generator import TpchScale

QUERIES = {"q1": QUERY_1, "q2": QUERY_2}
CONFIGS = {
    "A": CONFIG_A,
    "sf3": dataclasses.replace(CONFIG_A, scale=TpchScale().scaled(3)),
}
PARTITIONS = (None, "unified", "fully-partitioned")
INDENTS = (None, 2)

#: (config, query, indent) -> (sha256 of the UTF-8 document, characters)
GOLDEN = {
    ("A", "q1", None): (
        "42b39fe54709c157cec79a1f5cd461364f44911dbdcb82a89b4448472e58d2cd",
        42751),
    ("A", "q1", 2): (
        "321fe3f85eb9ccc3d05ccab99638adef719b66ade75f5b582452cbe3f618b92e",
        60932),
    ("A", "q2", None): (
        "b7af5eb62162e1a84c56fd880686c047149f5f34e0508ad10eb9a5ca78151dba",
        42751),
    ("A", "q2", 2): (
        "e9d0fa43f984aaf983890522c97a927dc638d32fa22e12750ced1a4be32aa923",
        56932),
    ("sf3", "q1", None): (
        "410a64134a717a834944303f81e6fd5fe0382da9e678c3cfe85d15dd57baee48",
        129424),
    ("sf3", "q1", 2): (
        "3ab13885452ff5ee4a3a8f5026394ba4a533d36a8986546f99ca04dd53ec8dd6",
        183965),
    ("sf3", "q2", None): (
        "e8cd34d522c3cdf0fa4a2ce7c334ac1dec7dc28f6b6c0cfcf2b2cde4315959e5",
        129424),
    ("sf3", "q2", 2): (
        "e170b526cfbf88149f7b6d52963f5373d4d28c13a91ddc2861f9c800714fb389",
        171965),
}


class HashingSink:
    """A sink keeping a running SHA-256 and character count, so the
    streamed document is checked without being buffered."""

    def __init__(self):
        self.chars = 0
        self._hash = hashlib.sha256()

    def write(self, text):
        self.chars += len(text)
        self._hash.update(text.encode("utf-8"))
        return len(text)

    def fingerprint(self):
        return self._hash.hexdigest(), self.chars


def fingerprint(xml):
    return hashlib.sha256(xml.encode("utf-8")).hexdigest(), len(xml)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def golden_db(request):
    config = CONFIGS[request.param]
    return request.param, config, build_database(config)


def fresh_session(config, database):
    """Empty caches every time: a document-cache hit would skip xmlgen."""
    return Session(
        Connection(database, config.cost_model, config.transfer_model)
    )


@pytest.mark.parametrize("qname", sorted(QUERIES))
@pytest.mark.parametrize("indent", INDENTS)
def test_materialize_matches_golden(golden_db, qname, indent):
    name, config, database = golden_db
    expected = GOLDEN[(name, qname, indent)]
    for partition in PARTITIONS:
        for reduce in (False, True):
            for style in PlanStyle:
                result = fresh_session(config, database).materialize(
                    QUERIES[qname], partition, indent=indent,
                    reduce=reduce, style=style,
                )
                assert fingerprint(result.xml) == expected, (
                    name, qname, indent, partition, reduce, style,
                )


@pytest.mark.parametrize("qname", sorted(QUERIES))
@pytest.mark.parametrize("indent", INDENTS)
def test_materialize_to_matches_golden(golden_db, qname, indent):
    name, config, database = golden_db
    expected = GOLDEN[(name, qname, indent)]
    for partition in PARTITIONS:
        sink = HashingSink()
        fresh_session(config, database).materialize_to(
            QUERIES[qname], sink, partition, indent=indent, reduce=True,
        )
        assert sink.fingerprint() == expected, (name, qname, indent, partition)


if __name__ == "__main__":
    for name, config in sorted(CONFIGS.items()):
        database = build_database(config)
        for qname in sorted(QUERIES):
            for indent in INDENTS:
                xml = fresh_session(config, database).materialize(
                    QUERIES[qname], "unified", indent=indent,
                ).xml
                sha, chars = fingerprint(xml)
                print(f"    ({name!r}, {qname!r}, {indent!r}): (\n"
                      f"        {sha!r}, {chars}),")
