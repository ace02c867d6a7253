"""Tests for the command-line interface (repro.cli)."""

import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--query", "q9"])


def reject(*argv):
    """Parse expecting rejection; return (exit code, stderr text)."""
    import contextlib

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(list(argv))
    return info.value.code, err.getvalue()


class TestValidation:
    """Bad flag values die with a one-line error and exit code 2."""

    @pytest.mark.parametrize("rate", ["-0.1", "1.5", "2", "nan", "abc"])
    def test_fault_rate_must_be_probability(self, rate):
        code, err = reject("materialize", "--fault-rate", rate)
        assert code == 2
        assert "--fault-rate" in err

    @pytest.mark.parametrize("flag", ["--workers", "--retries",
                                      "--replicas", "--max-concurrent"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_positive_int_flags(self, flag, value):
        code, err = reject("materialize", flag, value)
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize("flag", ["--budget-ms", "--hedge-ms"])
    @pytest.mark.parametrize("value", ["0", "-5", "oops"])
    def test_positive_float_flags(self, flag, value):
        code, err = reject("materialize", flag, value)
        assert code == 2
        assert flag in err

    def test_unknown_query_exits_2(self):
        code, err = reject("materialize", "--query", "nope")
        assert code == 2
        assert "--query" in err

    def test_explain_takes_no_execution_flag(self):
        """explain renders SQL without dispatching it: a flag only
        dispatch reads is an error, not silently ignored."""
        code, err = reject("explain", "--retries", "3")
        assert code == 2
        assert "--retries" in err

    def test_error_message_is_one_line(self):
        _, err = reject("sweep", "--fault-rate", "7")
        # argparse prints usage + a single error line; the error itself
        # is one line naming the flag and the offending value.
        error_lines = [l for l in err.splitlines() if "error:" in l]
        assert len(error_lines) == 1
        assert "7" in error_lines[0]

    def test_valid_boundary_values_accepted(self):
        args = build_parser().parse_args(
            ["materialize", "--fault-rate", "0", "--workers", "1",
             "--replicas", "2", "--hedge-ms", "0.5", "--budget-ms", "0.1"])
        assert args.fault_rate == 0.0
        assert args.replicas == 2
        assert args.hedge_ms == 0.5
        args = build_parser().parse_args(["materialize", "--fault-rate", "1"])
        assert args.fault_rate == 1.0


class TestExplain:
    def test_unified(self):
        code, output = run_cli("explain", "--strategy", "unified")
        assert code == 0
        assert "LEFT OUTER JOIN" in output
        assert output.count("-- query") == 1

    def test_fully_partitioned(self):
        code, output = run_cli("explain", "--strategy", "fully-partitioned")
        assert output.count("-- query") == 10

    def test_greedy_reduced(self):
        code, output = run_cli("explain", "--reduce")
        assert code == 0
        assert "ORDER BY" in output


class TestMaterialize:
    def test_stdout(self):
        code, output = run_cli("materialize", "--strategy", "fully-partitioned")
        assert code == 0
        assert output.startswith("<view>")
        assert "stream(s), simulated" in output

    def test_to_file(self, tmp_path):
        target = tmp_path / "doc.xml"
        code, output = run_cli(
            "materialize", "--strategy", "unified", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("<view>")
        assert "wrote" in output

    def test_indent(self):
        _, output = run_cli("materialize", "--strategy", "fully-partitioned",
                            "--indent", "2")
        assert "\n  <supplier>" in output

    def test_query2(self):
        _, output = run_cli("materialize", "--query", "q2",
                            "--strategy", "fully-partitioned")
        assert "<order>" in output

    def test_a_reader_that_closes_the_pipe_ends_it_quietly(self):
        """``materialize ... | head -1``: indented by 8 the document
        (≈ 108 KB) is larger than a pipe holds (64 KiB on Linux), so the
        writer blocks until the reader's close breaks the write; the
        command stops without a traceback, as a filter does."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "materialize", "--strategy",
             "fully-partitioned", "--indent", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert process.stdout.readline() == b"<view>\n"
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=120) == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


class TestPlan:
    def test_plan_output(self):
        code, output = run_cli("plan", "--reduce")
        assert code == 0
        assert "mandatory edges" in output
        assert "oracle requests" in output

    def test_plan_outer_union_style(self):
        code, output = run_cli("plan", "--style", "outer-union")
        assert code == 0


class TestXmlQl:
    def test_xmlql_command(self):
        code, output = run_cli(
            "xmlql",
            'where <supplier><name>$s</name></supplier>, '
            '$s = "Supplier#000001" construct <r>$s</r>',
        )
        assert code == 0
        assert "<r>Supplier#000001</r>" in output
        assert "1 binding(s)" in output


class TestTreeAndSql:
    def test_tree_command(self):
        code, output = run_cli("tree")
        assert code == 0
        assert "S1 <supplier>" in output
        assert "(*) S1.4 <part>" in output

    def test_tree_no_args(self):
        _, output = run_cli("tree", "--no-args")
        assert "suppkey(1,1)" not in output


class TestExperiments:
    def test_registry_listing(self):
        code, output = run_cli("experiments")
        assert code == 0
        for eid in ("E1", "E5", "E10"):
            assert eid + ":" in output
        assert "benchmarks/test_sec2_table.py" in output

    def test_registry_lookup(self):
        from repro.bench.experiments import EXPERIMENTS

        by_id = {entry.id: entry for entry in EXPERIMENTS}
        assert len(by_id) == len(EXPERIMENTS) == 10
        assert by_id["E7"].artifact.startswith("Fig. 18")

    def test_benches_exist(self):
        import pathlib

        from repro.bench.experiments import EXPERIMENTS

        root = pathlib.Path(__file__).parent.parent
        for entry in EXPERIMENTS:
            path = entry.bench.split("::")[0]
            assert (root / path).exists(), path

    def test_experiments_md_quotes_the_committed_results(self):
        """EXPERIMENTS.md is typed by hand: every ``N.NNx`` factor and ms
        figure of ``headline_claims.txt`` and of the one-line
        ``ablation_*.txt`` results must appear in it, digit for digit
        (it groups thousands and puts a space before ``ms``)."""
        import pathlib
        import re

        root = pathlib.Path(__file__).parent.parent
        results = root / "benchmarks" / "results"
        quoted = re.sub(r"(?<=\d),(?=\d{3})", "",
                        (root / "EXPERIMENTS.md").read_text())
        quoted = re.sub(r"(?<=\d) ms\b", "ms", quoted)
        files = [results / "headline_claims.txt"] + [
            path for path in sorted(results.glob("ablation_*.txt"))
            if len(path.read_text().splitlines()) == 1
        ]
        assert len(files) == 5
        for path in files:
            figures = re.findall(r"\d+\.\d\dx|\d+ms", path.read_text())
            assert figures, path.name
            for figure in figures:
                assert figure in quoted, (path.name, figure)


class TestVersion:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--version"])
        assert info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestTrace:
    def test_writes_chrome_trace_and_profile(self, tmp_path):
        import json

        target = tmp_path / "trace.json"
        code, output = run_cli("trace", "q1", "--out", str(target))
        assert code == 0
        events = json.loads(target.read_text())
        assert isinstance(events, list) and events
        names = {e["name"] for e in events}
        for required in ("materialize", "sqlgen", "dispatch", "merge", "tag"):
            assert required in names
        assert any(n.startswith("stream:") for n in names)
        # The profile tree and the summary land on stdout.
        assert "materialize" in output
        assert "wrote Chrome trace" in output
        assert "stream(s), simulated" in output

    def test_default_query_and_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli("trace")
        assert code == 0
        assert (tmp_path / "trace.json").exists()

    def test_trace_with_metrics(self, tmp_path):
        import json

        code, output = run_cli(
            "trace", "q1", "--out", str(tmp_path / "t.json"), "--metrics"
        )
        assert code == 0
        snap = json.loads(output[output.index("{"):])
        assert snap["counters"]["streams.executed"] >= 1


class TestMetricsFlag:
    def test_materialize_metrics(self):
        import json

        code, output = run_cli(
            "materialize", "--strategy", "fully-partitioned", "--metrics"
        )
        assert code == 0
        snap = json.loads(output[output.index("{"):])
        assert snap["counters"]["streams.executed"] >= 1
        assert "stream.query_ms" in snap["histograms"]

    def test_materialize_without_metrics_prints_no_json(self):
        _, output = run_cli("materialize", "--strategy", "fully-partitioned")
        assert '"counters"' not in output


class TestReplicaFlags:
    def test_materialize_with_replicas(self):
        code, output = run_cli(
            "materialize", "--strategy", "fully-partitioned",
            "--replicas", "3", "--hedge-ms", "5",
            "--fault-rate", "0.3", "--fault-seed", "7", "--retries", "4",
        )
        assert code == 0
        assert output.startswith("<view>")
        assert "-- replicas:" in output
        assert "failover(s)" in output and "hedge(s)" in output

    def test_replica_run_matches_plain_run(self):
        _, plain = run_cli("materialize", "--strategy", "fully-partitioned")
        _, replicated = run_cli(
            "materialize", "--strategy", "fully-partitioned",
            "--replicas", "2", "--hedge-ms", "50",
            "--fault-rate", "0.2", "--retries", "4",
        )
        plain_xml = plain[:plain.index("\n-- ")]
        replicated_xml = replicated[:replicated.index("\n-- ")]
        assert replicated_xml == plain_xml


def reject_main(*argv):
    """Run main() expecting a validation exit; return (code, stderr)."""
    import contextlib

    err = io.StringIO()
    out = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            main(list(argv), out=out)
    return info.value.code, err.getvalue()


class TestBackendFlags:
    def test_unknown_backend_rejected(self):
        code, err = reject("materialize", "--backend", "postgres")
        assert code == 2
        assert "--backend" in err

    def test_db_path_requires_sqlite_backend(self):
        code, err = reject_main("materialize", "--db-path", "x.db")
        assert code == 2
        error_lines = [l for l in err.splitlines() if "error:" in l]
        assert len(error_lines) == 1
        assert "--db-path" in error_lines[0]

    def test_db_path_with_simulated_backend_rejected(self):
        # "simulated" is what every run is; the flag names a real check.
        code, err = reject_main(
            "materialize", "--backend", "simulated", "--db-path", "x.db"
        )
        assert code == 2
        assert "--backend" in err and "'sqlite'" in err

    def test_backend_is_a_local_check_of_two_commands(self):
        for argv in (["sweep", "--backend", "sqlite"],
                     ["explain", "--backend", "sqlite"]):
            code, _ = reject(*argv)
            assert code == 2
        code, err = reject_main(
            "query", "q1", "--backend", "sqlite", "--connect", "127.0.0.1:1"
        )
        assert code == 2
        assert "--connect" in err

    def test_materialize_with_sqlite_backend(self):
        for command in ("materialize", "query"):
            code, output = run_cli(
                command, "--strategy", "fully-partitioned",
                "--backend", "sqlite",
            )
            assert code == 0
            assert output.rstrip().splitlines()[-1].startswith(
                "-- backend: sqlite, measured "
            )
            assert output.rstrip().endswith(
                "wall, rows cross-validated against the simulated oracle"
            )

    def test_backend_run_matches_plain_run(self):
        _, plain = run_cli("materialize", "--strategy", "fully-partitioned")
        _, backed = run_cli(
            "materialize", "--strategy", "fully-partitioned",
            "--backend", "sqlite",
        )
        assert backed[:backed.index("\n-- ")] == plain[:plain.index("\n-- ")]
        # The simulated summary line is byte-identical too: real-backend
        # walls never leak into the simulated timings.
        plain_summary = [l for l in plain.splitlines()
                         if "stream(s), simulated" in l]
        backed_summary = [l for l in backed.splitlines()
                          if "stream(s), simulated" in l]
        assert backed_summary == plain_summary

    def test_db_path_writes_file(self, tmp_path):
        target = tmp_path / "silk.db"
        code, output = run_cli(
            "materialize", "--strategy", "unified",
            "--backend", "sqlite", "--db-path", str(target),
        )
        assert code == 0
        assert "-- backend: sqlite" in output
        assert target.exists() and target.stat().st_size > 0
