"""Tests of the perf harness itself, at ``--smoke`` sizes (< 60 s).

Not part of tier-1 (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

import dataclasses
import json

import pytest

import perf_common as common
import perf_layers
import perf_stats
import perf_workloads
import run
from perf_common import QUERIES, fresh_session
from perf_spans import Recorder

SEED = 20010521


@pytest.fixture(scope="module")
def config():
    return common.bench_config(SEED, common.SMOKE_SCALE)


@pytest.fixture(scope="module")
def database(config):
    return common.build_database(config)


def run_cli(capsys, *argv):
    """``run.main`` in process: (exit code, result object, metric lines)."""
    code = run.main([*argv, "--seed", str(SEED), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("streaming", [False, True])
def test_replayed_pipeline_is_byte_identical(database, config, streaming):
    """All six variants: the pipeline replayed through the public layer
    functions produces exactly ``Session.materialize``'s bytes."""
    rec = Recorder()
    for op, (qname, partition) in enumerate(perf_workloads.EXPORT_VARIANTS):
        xml = fresh_session(database, config).materialize(
            QUERIES[qname], partition=partition).xml
        if streaming:
            sink = perf_layers.replay_stream(
                rec, database, config, qname, partition, op,
                perf_layers.Counter())
            assert sink.hexdigest() == perf_workloads.digest(xml)
            assert sink.chars == len(xml)
        else:
            assert perf_layers.replay_export(
                rec, database, config, qname, partition, op,
                perf_layers.Counter()) == xml


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_present_with_unit(
        capsys, monkeypatch, workload, trace):
    # One sweep instead of four keeps the smoke run short; the op (one
    # plan of a full 512-plan sweep) is unchanged.
    monkeypatch.setattr(perf_workloads, "SWEEP_VARIANTS", (("q1", True),))
    code, result, lines = run_cli(
        capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = common.catalogue()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        value = result["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], float)
        assert f"{entry['name']} {workload} " in "\n".join(lines)
    assert any(line.startswith("failed_frac ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for note in ("# host.spin_ms ", "# raw_op_ms_p50 ", "# raw_op_ms_p90 "):
            assert any(line.startswith(note) for line in lines)
        return
    # Where the time goes, on the seed: decode is the largest layer of an
    # export, the engine of a sweep, and a sweep never touches xmlgen.
    busy = {name: value["value"] for name, value in result["metrics"].items()
            if name.endswith(".busy_ms") and value["value"]}
    if workload == "plan_sweep":
        assert max(busy, key=busy.get) == "relational.execute.busy_ms"
        assert not any(name.startswith("xmlgen.") for name in busy)
    elif workload.startswith("export"):
        assert max(busy, key=busy.get) == "xmlgen.decode.busy_ms"


def test_layer_spans_and_glue_sum_to_op_wall(database, config, tmp_path):
    piece, outputs, _ = perf_layers.export_slice(
        database, config, seconds=0.0, streaming=False)
    values = piece.metrics()
    assert piece.failed == 0 and piece.ops == len(outputs) == 6
    layers = sum(values[f"{layer}.busy_ms"] for layer in perf_layers.LAYERS)
    wall = sum(piece.untraced_ms) / piece.ops
    assert layers + values["session.glue_ms"] == pytest.approx(wall)
    assert values["session.attributed_frac"] == pytest.approx(layers / wall)
    # Each op span holds its layer spans; what is left is the replay's own
    # overhead, far below the layers.
    ops = [span for span in piece.rec.spans if span.name == "op"]
    assert len(ops) == piece.ops
    for op in ops:
        assert {child.name for child in op.children} == set(perf_layers.LAYERS)
        assert 0 <= op.self_ms < 0.05 * op.ms

    path = tmp_path / "trace.json"
    piece.rec.write(path)
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    assert len(events) == len(piece.rec.spans)
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0 and event["ts"] >= 0
        assert {"name", "pid", "tid", "args"} <= set(event)
    assert {e["args"]["op"] for e in events if e["name"] == "op"} \
        == set(range(piece.ops))


def test_streaming_layers_are_self_times(database, config):
    """The stream pipeline's layers are drawn as aggregated child spans
    whose self times add up to the pipeline span."""
    rec = Recorder()
    perf_layers.replay_stream(
        rec, database, config, "q1", "fully-partitioned", 0,
        perf_layers.Counter())
    pipeline = next(span for span in rec.spans if span.name == "pipeline")
    assert [child.name for child in pipeline.children] \
        == list(perf_layers.LAYERS[4:])
    assert all(child.args["aggregated"] for child in pipeline.children)
    assert all(child.ms > 0 for child in pipeline.children)
    assert 0 <= pipeline.self_ms < 0.05 * pipeline.ms


def test_corrupted_reference_fails_the_run(capsys, monkeypatch):
    """A wrong answer can never post a fast time: when outputs differ from
    the reference document the ops fail and the exit code is non-zero."""
    honest = perf_workloads.reference_documents

    def corrupted(database, config):
        documents = honest(database, config)
        documents["q1"] = documents["q1"].replace("<name>", "<nane>", 1)
        return documents

    monkeypatch.setattr(perf_workloads, "reference_documents", corrupted)
    for workload in ("export_cold", "export_stream"):
        code, result, lines = run_cli(capsys, "--workload", workload)
        assert code != 0
        assert result["correct"] is False
        # Half the ops export Query 1.
        assert result["failed"] == result["attempted"] // 2
        assert any(line.startswith("failed_frac ") and " 0.5 " in line
                   for line in lines)


def test_sweep_and_serve_checks_catch_wrong_answers(
        database, config, monkeypatch):
    session = fresh_session(database, config)
    sweep = session.sweep(
        QUERIES["q2"], reduce=True, budget_ms=common.SWEEP_BUDGET_MS).sweep
    sweeps = [("q2", True, sweep.timings)]
    assert perf_workloads.check_sweeps(database, config, sweeps) == 0
    wrong = list(sweep.timings)
    wrong[32] = dataclasses.replace(wrong[32], query_ms=wrong[32].query_ms + 1)
    assert perf_workloads.check_sweeps(
        database, config, [("q2", True, wrong)]) == 1

    state = perf_workloads.serve_setup(config)
    try:
        requests, rounds = perf_workloads.serve_phase(
            state, SEED, seconds=0.0)
        assert rounds.rounds == 1 and len(rounds.host.spins) == 2
        replies = {r.request_id: r.reply for r in requests}
        assert len(replies) == 2 * perf_workloads.SERVE_CYCLE
        assert perf_workloads.check_serve(state.server, replies, config) == 0
        victim = next(r.request_id for r in requests if r.kind == "read")
        replies[victim] = dict(replies[victim], xml_sha256="0" * 64)
        replies["never-sent"] = {"mutated": 2}
        assert perf_workloads.check_serve(state.server, replies, config) == 2
    finally:
        state.dispose()


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [value * 0.8 for value in base]
    slower = [value * 1.3 for value in base]
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert perf_stats.verdict(base, base, "lower", 0.1) == "unchanged"
    assert perf_stats.verdict(base, faster, "lower", 0.1) == "improved"
    assert perf_stats.verdict(base, slower, "lower", 0.1) == "regressed"
    assert perf_stats.verdict(base, faster, "higher", 0.1) == "regressed"
    assert perf_stats.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert perf_stats.spread(base) == pytest.approx(0.005, abs=0.005)
