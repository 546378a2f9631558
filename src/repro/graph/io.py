"""Reading and writing bipartite graphs from and to disk.

Three formats are supported:

* **Edge list / TSV** — one ``u v`` pair per line, optional ``#`` comments.
  This is the format the KONECT collection (the paper's data source) uses
  for its ``out.*`` files, where a header line starting with ``%`` carries
  metadata.
* **KONECT** — the same as edge list, but the ``%``-prefixed header is
  honoured and vertex ids are 1-based as in the published files.
* **Matrix Market coordinate** — ``%%MatrixMarket matrix coordinate`` files
  describing the biadjacency matrix.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import TextIO

import numpy as np

from ..errors import GraphFormatError
from .bipartite import BipartiteGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_konect",
    "read_matrix_market",
    "write_matrix_market",
    "load_graph",
]


def _open_text(path: str | Path) -> TextIO:
    # Bytes that are not UTF-8 decode to lone surrogates: harmless in a
    # comment, and in an id field they fail the ASCII-digit check with the
    # line number, instead of a UnicodeDecodeError from the reader.
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", errors="surrogateescape")
    return open(path, "rt", encoding="utf-8", errors="surrogateescape")


_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_count(field: str, *, where: str, what: str) -> int:
    """A non-negative integer of ASCII digits that fits in int64.

    ``int()`` alone would also take ``+3``, ``1_0`` and non-ASCII digits,
    and NumPy would reject values beyond int64 with a bare
    ``OverflowError``; every such field is a :class:`GraphFormatError`.
    """
    negative = field.startswith("-")
    digits = field[1:] if negative else field
    if not (digits.isascii() and digits.isdigit()):
        raise GraphFormatError(f"{where}: non-integer {what} {field!r}")
    if negative:
        raise GraphFormatError(f"{where}: negative {what}")
    if len(digits.lstrip("0")) > 19 or int(digits) > _INT64_MAX:
        raise GraphFormatError(f"{where}: {what} {field} is beyond the int64 range")
    return int(digits)


def _parse_pairs(handle: TextIO, *, comment_prefixes: tuple[str, ...], one_based: bool,
                 path: Path) -> np.ndarray:
    edges: list[tuple[int, int]] = []
    for line_number, raw_line in enumerate(handle, start=1):
        line = raw_line.strip()
        if not line or line.startswith(comment_prefixes):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise GraphFormatError(f"{path}:{line_number}: expected at least two columns")
        where = f"{path}:{line_number}"
        u = _parse_count(fields[0], where=where, what="vertex id")
        v = _parse_count(fields[1], where=where, what="vertex id")
        if one_based:
            u -= 1
            v -= 1
        if u < 0 or v < 0:
            raise GraphFormatError(f"{where}: negative vertex id after adjustment")
        edges.append((u, v))
    if not edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(edges, dtype=np.int64)


def read_edge_list(
    path: str | Path,
    *,
    one_based: bool = False,
    n_u: int | None = None,
    n_v: int | None = None,
    allow_duplicates: bool = True,
    name: str | None = None,
) -> BipartiteGraph:
    """Read a whitespace-separated ``u v`` edge list.

    Lines starting with ``#`` or ``%`` are treated as comments.  Duplicate
    edges are collapsed by default because raw interaction logs (ratings,
    page edits) frequently repeat pairs.
    """
    path = Path(path)
    with _open_text(path) as handle:
        edge_array = _parse_pairs(handle, comment_prefixes=("#", "%"), one_based=one_based,
                                  path=path)
    inferred_n_u = int(edge_array[:, 0].max()) + 1 if edge_array.shape[0] else 0
    inferred_n_v = int(edge_array[:, 1].max()) + 1 if edge_array.shape[0] else 0
    return BipartiteGraph(
        n_u if n_u is not None else inferred_n_u,
        n_v if n_v is not None else inferred_n_v,
        edge_array,
        allow_duplicates=allow_duplicates,
        name=name if name is not None else path.stem,
    )


def write_edge_list(graph: BipartiteGraph, path: str | Path, *, one_based: bool = False) -> None:
    """Write the graph as a ``u v`` edge list with a small metadata header."""
    path = Path(path)
    offset = 1 if one_based else 0
    with open(path, "wt", encoding="utf-8") as handle:
        handle.write(f"# bipartite edge list |U|={graph.n_u} |V|={graph.n_v} |E|={graph.n_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u + offset} {v + offset}\n")


def read_konect(path: str | Path, *, name: str | None = None) -> BipartiteGraph:
    """Read a KONECT ``out.*`` file (1-based ids, ``%`` headers)."""
    return read_edge_list(path, one_based=True, allow_duplicates=True, name=name)


def read_matrix_market(path: str | Path, *, name: str | None = None) -> BipartiteGraph:
    """Read a Matrix Market coordinate file as a biadjacency matrix.

    Rows index the ``U`` side and columns the ``V`` side.  Any stored value
    is interpreted as edge presence; ``pattern`` files are supported.
    """
    path = Path(path)
    with _open_text(path) as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"{path}: missing MatrixMarket header")
        tokens = header.lower().split()
        if "coordinate" not in tokens:
            raise GraphFormatError(f"{path}: only coordinate format is supported")
        size_line = handle.readline()
        while size_line.startswith("%"):
            size_line = handle.readline()
        sizes = size_line.split()
        if len(sizes) < 3:
            raise GraphFormatError(f"{path}: malformed size line {size_line!r}")
        n_rows, n_cols, n_entries = (
            _parse_count(field, where=f"{path}: size line", what="size") for field in sizes[:3]
        )
        edge_array = _parse_pairs(handle, comment_prefixes=("%",), one_based=True, path=path)
    if edge_array.shape[0] != n_entries:
        raise GraphFormatError(
            f"{path}: header declares {n_entries} entries but {edge_array.shape[0]} were read"
        )
    return BipartiteGraph(n_rows, n_cols, edge_array, allow_duplicates=True,
                          name=name if name is not None else path.stem)


def write_matrix_market(graph: BipartiteGraph, path: str | Path) -> None:
    """Write the graph as a Matrix Market ``pattern`` coordinate file."""
    path = Path(path)
    with open(path, "wt", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate pattern general\n")
        handle.write(f"{graph.n_u} {graph.n_v} {graph.n_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u + 1} {v + 1}\n")


def load_graph(path: str | Path, *, name: str | None = None) -> BipartiteGraph:
    """Load a graph, dispatching on the file name.

    ``*.mtx`` files are parsed as Matrix Market, ``out.*`` files as KONECT,
    everything else as a plain edge list.
    """
    path = Path(path)
    if path.suffix == ".mtx" or path.name.endswith(".mtx.gz"):
        return read_matrix_market(path, name=name)
    if path.name.startswith("out."):
        return read_konect(path, name=name)
    return read_edge_list(path, name=name)
