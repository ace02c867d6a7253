"""The two traced-export cases of ``benchmarks/perf/test_perf_harness.py``
(``test_every_named_metric_present_with_unit[export_cold-1]`` and
``[export_stream-1]``) up to, and without, the layer ranking they end on.

That last assertion — ``xmlgen.decode.busy_ms`` is the largest layer of a
traced export — described the integration before it was compiled (PR 12)
and is false since: the engine is the largest layer now.
``benchmarks/perf`` may not change in a PR that claims a gain, so CI
deselects those two cases in its blocking step (and still runs them in an
informational one); this file keeps blocking everything else they check.
Delete it once the harness's own test no longer asserts the old ranking.

Not in tier-1, like the harness's tests (≈ 15 s):

    PYTHONPATH=src python -m pytest benchmarks/test_perf_traced_exports.py -q
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "perf"))

import perf_common as common
import run

SEED = 20010521
EXPORT_LAYERS = (
    "relational.execute", "xmlgen.decode", "xmlgen.merge", "xmlgen.tag",
    "xmlgen.serialize",
)


@pytest.mark.parametrize("workload", ["export_cold", "export_stream"])
def test_traced_export_reports_every_per_layer_metric(capsys, workload):
    code = run.main(
        ["--workload", workload, "--trace", "1", "--seed", str(SEED),
         "--smoke"])
    *lines, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = common.catalogue()["per_layer"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        value = result["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], float)
        assert f"{entry['name']} {workload} " in "\n".join(lines)
    assert any(line.startswith("failed_frac ") for line in lines)
    # In place of the ranking: every layer of an export did measurable
    # work, and every decoded instance went through the merge.
    values = {name: value["value"] for name, value in result["metrics"].items()}
    for layer in EXPORT_LAYERS:
        assert values[f"{layer}.busy_ms"] > 0
    assert values["xmlgen.decode.instances"] \
        == values["xmlgen.merge.instances"] > 0
