"""Unit tests for graph file I/O."""

import gzip
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError, GraphFormatError, ReproError
from repro.graph.bipartite import BipartiteGraph
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

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "\uff11", "1.0", "0x1"])
    def test_only_ascii_digit_ids_accepted(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 0\n{token} 1\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=r"bad.txt:2: non-integer"):
            read_edge_list(path)

    def test_id_beyond_int64_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n99999999999999999999 1\n")
        with pytest.raises(GraphFormatError, match=r"bad.txt:2: .*beyond the int64 range"):
            read_edge_list(path)

    def test_non_utf8_id_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# caf\xe9\n0 1\n\xff\xfe 2\n")
        with pytest.raises(GraphFormatError, match=r"bad.txt:3: non-integer"):
            read_edge_list(path)

    def test_negative_id_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n3 -4\n")
        with pytest.raises(GraphFormatError, match=r"bad.txt:2: negative vertex id"):
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


# ----------------------------------------------------------------------
# Property: every loader builds the validating constructor's graph or
# raises a typed error.
# ----------------------------------------------------------------------
_INT64_MAX = 2**63 - 1

# In-range ids stay small, so no input asks for a huge inferred side.
_ID_TOKENS = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(-3, -1).map(str),
    st.integers(2**63, 2**66).map(str),
    st.sampled_from(["1_0", "+3", "-0", "007", "1.5", "x", "\u0663", "\uff11", "0x1"]),
)
_LINES = st.one_of(
    st.tuples(_ID_TOKENS, _ID_TOKENS).map(" ".join),
    st.tuples(_ID_TOKENS, _ID_TOKENS, st.sampled_from(["1.5", "7 9", "\u00e9"])).map(" ".join),
    st.sampled_from(["", "   ", "# note", "% note", "5", "a b", "\t2\t3\t"]),
    st.text(alphabet="0123456789 -+_.xé\t#%", max_size=8),
)


def _reference_pairs(lines, comments, one_based):
    """The loaders' contract for data lines: ``None`` when one must be rejected."""
    pairs = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith(comments):
            continue
        fields = line.split()
        if len(fields) < 2:
            return None
        ids = []
        for field in fields[:2]:
            if not (field.isascii() and field.isdigit()) or int(field) > _INT64_MAX:
                return None
            ids.append(int(field) - one_based)
        if min(ids) < 0:
            return None
        pairs.append(ids)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _expected_graph(n_u, n_v, pairs):
    try:
        return BipartiteGraph(n_u, n_v, pairs, allow_duplicates=True)
    except GraphConstructionError:
        return None


class TestLoaderProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        loader=st.sampled_from(["edge_list", "konect", "matrix_market"]),
        lines=st.lists(_LINES, max_size=10),
        declared=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        declare=st.booleans(),
        entries_delta=st.sampled_from([0, 0, 0, 1, -1]),
    )
    def test_loader_builds_constructor_graph_or_raises_typed_error(
        self, loader, lines, declared, declare, entries_delta
    ):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / ("graph.mtx" if loader == "matrix_market" else "out.graph")
            body = "".join(line + "\n" for line in lines)
            if loader == "edge_list":
                pairs = _reference_pairs(lines, ("#", "%"), 0)
                n_u, n_v = declared if declare else (None, None)
                if pairs is not None:
                    expected = _expected_graph(
                        n_u if declare else int(pairs[:, 0].max(initial=-1)) + 1,
                        n_v if declare else int(pairs[:, 1].max(initial=-1)) + 1,
                        pairs,
                    )

                def load():
                    return read_edge_list(path, n_u=n_u, n_v=n_v)
            elif loader == "konect":
                pairs = _reference_pairs(lines, ("#", "%"), 1)
                if pairs is not None:
                    expected = _expected_graph(int(pairs[:, 0].max(initial=-1)) + 1,
                                               int(pairs[:, 1].max(initial=-1)) + 1, pairs)

                def load():
                    return read_konect(path)
            else:
                pairs = _reference_pairs(lines, ("%",), 1)
                n_entries = (0 if pairs is None else pairs.shape[0]) + entries_delta
                body = (
                    "%%MatrixMarket matrix coordinate pattern general\n"
                    f"{declared[0]} {declared[1]} {n_entries}\n" + body
                )
                if pairs is not None:
                    expected = (
                        _expected_graph(declared[0], declared[1], pairs)
                        if entries_delta == 0 else None
                    )

                def load():
                    return read_matrix_market(path)
            path.write_text(body, encoding="utf-8")

            if pairs is None or expected is None:
                with pytest.raises(ReproError):
                    load()
            else:
                assert load() == expected
