"""Unit tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.builders import from_edge_list
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph = from_edge_list(
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 0)], n_u=4, n_v=3
    )
    path = tmp_path / "graph.tsv"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_decompose_defaults(self, graph_file):
        args = build_parser().parse_args(["decompose", "--path", str(graph_file)])
        assert args.algorithm == "receipt"
        assert args.side == "U"

    def test_dataset_and_path_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--dataset", "it", "--path", "x"])


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for key in ("it", "de", "or", "lj", "en", "tr"):
            assert key in output

    def test_stats_on_file(self, graph_file, capsys):
        assert main(["stats", "--path", str(graph_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_u"] == 4
        assert payload["n_edges"] == 8

    def test_count_on_file(self, graph_file, capsys):
        assert main(["count", "--path", str(graph_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_butterflies"] >= 1
        assert payload["algorithm"] == "vertex-priority"

    def test_decompose_receipt(self, graph_file, capsys, tmp_path):
        output_file = tmp_path / "tips.json"
        exit_code = main([
            "decompose", "--path", str(graph_file),
            "--algorithm", "receipt", "--partitions", "2",
            "--output", str(output_file),
        ])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert '"algorithm": "RECEIPT"' in stdout
        assert "tip numbers written" in stdout
        # Output file holds per-vertex tip numbers.
        payload = json.loads(output_file.read_text())
        assert payload["side"] == "U"
        assert len(payload["tip_numbers"]) == 4

    def test_decompose_bup_v_side(self, graph_file, capsys):
        assert main(["decompose", "--path", str(graph_file), "--algorithm", "bup",
                     "--side", "V"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "BUP"
        assert payload["side"] == "V"
        assert payload["n_vertices"] == 3

    def test_compare_receipt_vs_bup(self, graph_file, capsys):
        assert main(["compare", "--path", str(graph_file),
                     "--first", "receipt", "--second", "bup"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_compare_on_a_worker_backend(self, graph_file, capsys, backend):
        assert main(["compare", "--path", str(graph_file), "--partitions", "2",
                     "--backend", backend, "--threads", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["first"]["algorithm"] == "RECEIPT"

    def test_stats_on_generated_dataset(self, capsys):
        assert main(["stats", "--dataset", "it", "--scale", "0.05", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_edges"] > 0

    def test_unknown_dataset_returns_error_code(self, capsys):
        assert main(["stats", "--dataset", "doesnotexist"]) == 2
        assert "error" in capsys.readouterr().err


class TestServingCommands:
    @pytest.fixture
    def artifact(self, graph_file, tmp_path, capsys):
        path = tmp_path / "graph.tipidx"
        assert main(["build-index", "--path", str(graph_file), "--partitions", "2",
                     "--output", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["n_u"] == 4
        assert payload["decomposition"]["algorithm"] == "RECEIPT"
        return path

    def test_build_index_refuses_overwrite_without_force(self, graph_file, artifact, capsys):
        assert main(["build-index", "--path", str(graph_file), "--partitions", "2",
                     "--output", str(artifact)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(["build-index", "--path", str(graph_file), "--partitions", "2",
                     "--output", str(artifact), "--force"]) == 0

    def test_query_matches_decompose(self, graph_file, artifact, capsys):
        assert main(["decompose", "--path", str(graph_file), "--algorithm", "bup"]) == 0
        decompose_summary = json.loads(capsys.readouterr().out)

        assert main(["query", str(artifact), "--op", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        summary = stats["artifacts"]["graph.U"]
        assert summary["max_tip_number"] == decompose_summary["max_tip_number"]
        assert summary["n_vertices"] == decompose_summary["n_vertices"]

    def test_query_theta_and_batch(self, artifact, capsys):
        assert main(["query", str(artifact), "--op", "theta", "--vertex", "0"]) == 0
        point = json.loads(capsys.readouterr().out)
        assert main(["query", str(artifact), "--op", "batch", "--vertices", "0,1,2,3"]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert batch["thetas"][0] == point["theta"]
        assert len(batch["thetas"]) == 4

    def test_query_top_k_k_tip_histogram_community(self, artifact, capsys):
        assert main(["query", str(artifact), "--op", "top-k", "--k", "2"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert len(top["vertices"]) == 2

        assert main(["query", str(artifact), "--op", "k-tip", "--k", "1"]) == 0
        ktip = json.loads(capsys.readouterr().out)
        assert ktip["size"] == len(ktip["vertices"])

        assert main(["query", str(artifact), "--op", "histogram"]) == 0
        histogram = json.loads(capsys.readouterr().out)
        assert "histogram" in histogram["artifacts"]["graph.U"]

        assert main(["query", str(artifact), "--op", "community", "--k", "1"]) == 0
        community = json.loads(capsys.readouterr().out)
        assert community["n_communities"] >= 1

    def test_query_missing_arguments_error(self, artifact, capsys):
        assert main(["query", str(artifact), "--op", "theta"]) == 2
        assert "--vertex" in capsys.readouterr().err

    def test_query_missing_artifact_error(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "ghost.tipidx")]) == 2
        assert "no artifact" in capsys.readouterr().err


class TestEntryPoints:
    """`python -m repro` must behave identically to the console script."""

    @staticmethod
    def _module_env():
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def test_python_dash_m_matches_direct_main(self, capsys):
        assert main(["datasets"]) == 0
        direct = capsys.readouterr().out

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            capture_output=True, text=True, timeout=120, env=self._module_env(),
        )
        assert completed.returncode == 0
        assert completed.stdout == direct

    def test_python_dash_m_error_path(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--dataset", "doesnotexist"],
            capture_output=True, text=True, timeout=120, env=self._module_env(),
        )
        assert completed.returncode == 2
        assert "error" in completed.stderr

    def test_query_into_a_closed_pipe_exits_without_a_traceback(self, graph_file, tmp_path,
                                                               capsys):
        artifact = tmp_path / "graph.tipidx"
        assert main(["build-index", "--path", str(graph_file), "--partitions", "2",
                     "--output", str(artifact)]) == 0
        capsys.readouterr()
        # The reader closes before the query writes a byte: `repro query | head`
        # with the earliest possible close.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "query", str(artifact),
                 "--op", "community", "--k", "0"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env=self._module_env(),
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr
        assert "BrokenPipeError" not in completed.stderr

    def test_a_print_larger_than_the_buffer_into_a_closed_pipe(self, monkeypatch):
        """The print itself fails; only the dead pipe is pointed at
        os.devnull, never the process's own fd 1."""
        import repro.cli as cli

        monkeypatch.setattr(cli, "_command_datasets", lambda: print("x" * 200_000) or 0)
        read_end, write_end = os.pipe()
        os.close(read_end)
        own_stdout = os.fstat(1)
        with os.fdopen(write_end, "w") as dead:
            monkeypatch.setattr(sys, "stdout", dead)
            assert main(["datasets"]) == 1
            assert os.path.samestat(os.fstat(dead.fileno()), os.stat(os.devnull))
        assert os.path.samestat(os.fstat(1), own_stdout)

    def test_a_broken_pipe_other_than_stdout_propagates(self, monkeypatch):
        import repro.cli as cli

        def broken():
            raise BrokenPipeError("a worker's pipe")

        monkeypatch.setattr(cli, "_command_datasets", broken)
        with pytest.raises(BrokenPipeError, match="a worker's pipe"):
            main(["datasets"])

    def test_decompose_writes_its_output_before_printing(self, graph_file, tmp_path,
                                                          monkeypatch):
        class ClosedStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError("the reader went away")

        output_file = tmp_path / "tips.json"
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        with pytest.raises(BrokenPipeError):
            main(["decompose", "--path", str(graph_file), "--output", str(output_file)])
        assert len(json.loads(output_file.read_text())["tip_numbers"]) == 4
