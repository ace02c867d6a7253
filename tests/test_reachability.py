"""The reachability tool (``benchmarks/reachability.py``) sees what a
benchmarked body runs.

pytest-benchmark's fixture switches the profiler off (``sys.setprofile(None)``)
around the timed body, so the tool runs the benches with
``--benchmark-disable``; ``CostModel.without``, which only
``benchmarks/test_ablation.py``'s benchmarked bodies call, must then count
as entered — it would be listed as unreached, and be convicted, if the
hook went quiet there.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", ROOT / "benchmarks" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)


def test_a_benchmarked_body_is_entered():
    ablation = [*reachability.ROOTS["benches"][:-len(reachability.BENCHES)],
                "benchmarks/test_ablation.py"]
    assert "--benchmark-disable" in ablation
    found, keys, failed, _ = reachability.measure({"ablation": ablation})
    assert failed == []
    entered = {qualname for key, (qualname, _, _) in found.items()
               if key in keys and key[0] == "repro/relational/engine.py"}
    assert "CostModel.without" in entered
