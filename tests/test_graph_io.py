"""Unit tests for graph file I/O."""

import gzip

import pytest

from repro.errors import GraphFormatError
from repro.graph.builders import from_edge_list
from repro.graph.io import (
    load_graph,
    read_edge_list,
    read_konect,
    read_matrix_market,
    write_edge_list,
    write_matrix_market,
)


@pytest.fixture
def sample_graph():
    return from_edge_list([(0, 0), (0, 1), (1, 0), (2, 2)], n_u=3, n_v=3, name="sample")


class TestEdgeList:
    def test_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(sample_graph, path)
        loaded = read_edge_list(path, n_u=3, n_v=3)
        assert loaded == sample_graph

    def test_roundtrip_one_based(self, sample_graph, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(sample_graph, path, one_based=True)
        loaded = read_edge_list(path, one_based=True, n_u=3, n_v=3)
        assert loaded == sample_graph

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n\n% other comment\n0 1\n1 0\n")
        graph = read_edge_list(path)
        assert graph.n_edges == 2

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 3.5 1234\n1 1 2.0 999\n")
        graph = read_edge_list(path)
        assert graph.n_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError, match="two columns"):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(path)

    def test_gzip_support(self, tmp_path):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 0\n1 1\n")
        graph = read_edge_list(path)
        assert graph.n_edges == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        graph = read_edge_list(path)
        assert graph.n_edges == 0

    def test_dataset_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mygraph.tsv"
        path.write_text("0 0\n")
        assert read_edge_list(path).name == "mygraph"


class TestKonect:
    def test_one_based_with_header(self, tmp_path):
        path = tmp_path / "out.test"
        path.write_text("% bip unweighted\n1 1\n2 1\n2 2\n")
        graph = read_konect(path)
        assert graph.n_u == 2
        assert graph.n_v == 2
        assert graph.has_edge(0, 0)
        assert graph.has_edge(1, 1)

    def test_zero_id_after_adjustment_rejected(self, tmp_path):
        path = tmp_path / "out.bad"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="negative"):
            read_konect(path)


class TestMatrixMarket:
    def test_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "graph.mtx"
        write_matrix_market(sample_graph, path)
        loaded = read_matrix_market(path)
        assert loaded == sample_graph

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("1 1 1\n1 1\n")
        with pytest.raises(GraphFormatError, match="MatrixMarket"):
            read_matrix_market(path)

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n")
        with pytest.raises(GraphFormatError, match="entries"):
            read_matrix_market(path)

    def test_non_coordinate_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        with pytest.raises(GraphFormatError, match="coordinate"):
            read_matrix_market(path)


class TestLoadDispatch:
    def test_dispatch_by_extension(self, sample_graph, tmp_path):
        mtx = tmp_path / "graph.mtx"
        write_matrix_market(sample_graph, mtx)
        assert load_graph(mtx) == sample_graph

        tsv = tmp_path / "graph.tsv"
        write_edge_list(sample_graph, tsv)
        assert load_graph(tsv) == sample_graph

    def test_dispatch_konect(self, tmp_path):
        path = tmp_path / "out.something"
        path.write_text("% header\n1 1\n")
        graph = load_graph(path)
        assert graph.n_edges == 1
