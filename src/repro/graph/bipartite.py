"""Core bipartite graph data structure used throughout the library.

The graph is stored twice in compressed-sparse-row (CSR) form: once indexed
by the ``U`` vertex set and once indexed by the ``V`` vertex set.  Both
directions are needed because every algorithm in the paper walks wedges
``u - v - u'`` (two hops), which requires the adjacency of both sides.

Vertices of each side are identified by dense integer ids ``0 .. n-1`` in
independent namespaces: ``u = 3`` and ``v = 3`` are different vertices.
The :class:`repro.graph.builders` module offers constructors that map
arbitrary hashable labels onto this dense id space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import GraphConstructionError, VertexSideError
from ..kernels.csr import gather_rows, segment_ids, segment_offsets

__all__ = ["BipartiteGraph", "opposite_side", "validate_side"]

_VALID_SIDES = ("U", "V")


def validate_side(side: str) -> str:
    """Return the canonical form of a vertex-side name.

    Parameters
    ----------
    side:
        Either ``"U"`` or ``"V"`` (case-insensitive).

    Raises
    ------
    VertexSideError
        If the value is not one of the two sides.
    """
    canonical = str(side).upper()
    if canonical not in _VALID_SIDES:
        raise VertexSideError(f"vertex side must be 'U' or 'V', got {side!r}")
    return canonical


def opposite_side(side: str) -> str:
    """Return the other vertex side (``"U"`` -> ``"V"`` and vice versa)."""
    return "V" if validate_side(side) == "U" else "U"


@dataclass(frozen=True)
class _CsrAdjacency:
    """One direction of the adjacency, stored as offsets + flat neighbor ids."""

    offsets: np.ndarray
    neighbors: np.ndarray

    def degree(self, vertex: int) -> int:
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def neighbors_of(self, vertex: int) -> np.ndarray:
        return self.neighbors[self.offsets[vertex]: self.offsets[vertex + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)


class BipartiteGraph:
    """An immutable, unweighted bipartite graph ``G(W = (U, V), E)``.

    Parameters
    ----------
    n_u, n_v:
        Number of vertices on the ``U`` and ``V`` side.  Isolated vertices
        (ids with no incident edge) are allowed and participate in zero
        butterflies.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u < n_u`` and
        ``0 <= v < n_v``.  Duplicate edges are rejected unless
        ``allow_duplicates=True`` in which case they are silently collapsed.

    Notes
    -----
    The object is conceptually immutable: all peeling algorithms keep their
    own mutable view (see :class:`repro.graph.dynamic.PeelableAdjacency`) and
    never modify the parent graph.
    """

    __slots__ = ("_n_u", "_n_v", "_u_adj", "_v_adj", "_n_edges", "_edge_cache", "name")

    def __init__(
        self,
        n_u: int,
        n_v: int,
        edges: Iterable[tuple[int, int]],
        *,
        allow_duplicates: bool = False,
        name: str = "",
    ):
        if n_u < 0 or n_v < 0:
            raise GraphConstructionError(
                f"vertex-set sizes must be non-negative, got n_u={n_u}, n_v={n_v}"
            )
        edge_array = _as_edge_array(edges)
        edge_array = _validate_edges(edge_array, n_u, n_v, allow_duplicates=allow_duplicates)

        self._n_u = int(n_u)
        self._n_v = int(n_v)
        self._n_edges = int(edge_array.shape[0])
        self._u_adj = _build_csr(edge_array[:, 0], edge_array[:, 1], n_u)
        self._v_adj = _build_csr(edge_array[:, 1], edge_array[:, 0], n_v)
        self._edge_cache: np.ndarray | None = None
        self.name = name

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_u(self) -> int:
        """Number of vertices on the ``U`` side."""
        return self._n_u

    @property
    def n_v(self) -> int:
        """Number of vertices on the ``V`` side."""
        return self._n_v

    @property
    def n_vertices(self) -> int:
        """Total number of vertices ``|W| = |U| + |V|``."""
        return self._n_u + self._n_v

    @property
    def n_edges(self) -> int:
        """Number of (distinct) edges."""
        return self._n_edges

    def side_size(self, side: str) -> int:
        """Return ``|U|`` or ``|V|`` depending on ``side``."""
        return self._n_u if validate_side(side) == "U" else self._n_v

    def degree_u(self, u: int) -> int:
        """Degree of vertex ``u`` of the ``U`` side."""
        return self._u_adj.degree(u)

    def degree_v(self, v: int) -> int:
        """Degree of vertex ``v`` of the ``V`` side."""
        return self._v_adj.degree(v)

    def degree(self, vertex: int, side: str) -> int:
        """Degree of a vertex on the given side."""
        return self.degree_u(vertex) if validate_side(side) == "U" else self.degree_v(vertex)

    def degrees_u(self) -> np.ndarray:
        """Array of degrees for every ``U`` vertex."""
        return self._u_adj.degrees()

    def degrees_v(self) -> np.ndarray:
        """Array of degrees for every ``V`` vertex."""
        return self._v_adj.degrees()

    def degrees(self, side: str) -> np.ndarray:
        """Degree array for the requested side."""
        return self.degrees_u() if validate_side(side) == "U" else self.degrees_v()

    def neighbors_u(self, u: int) -> np.ndarray:
        """Sorted ``V``-neighbors of ``u`` (a read-only view, do not modify)."""
        return self._u_adj.neighbors_of(u)

    def neighbors_v(self, v: int) -> np.ndarray:
        """Sorted ``U``-neighbors of ``v`` (a read-only view, do not modify)."""
        return self._v_adj.neighbors_of(v)

    def neighbors(self, vertex: int, side: str) -> np.ndarray:
        """Neighbors of a vertex on the given side."""
        if validate_side(side) == "U":
            return self.neighbors_u(vertex)
        return self.neighbors_v(vertex)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the edge ``(u, v)`` is present."""
        if not (0 <= u < self._n_u and 0 <= v < self._n_v):
            return False
        neighbors = self.neighbors_u(u)
        index = int(np.searchsorted(neighbors, v))
        return index < neighbors.shape[0] and int(neighbors[index]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge as a ``(u, v)`` pair, grouped by ``u``."""
        offsets = self._u_adj.offsets
        neighbors = self._u_adj.neighbors
        for u in range(self._n_u):
            for position in range(offsets[u], offsets[u + 1]):
                yield u, int(neighbors[position])

    def edge_array(self) -> np.ndarray:
        """Return all edges as an ``(m, 2)`` numpy array ``[u, v]``.

        The array is built once and cached (the graph is immutable); callers
        must treat it as read-only.
        """
        if self._edge_cache is None:
            offsets = self._u_adj.offsets
            degrees = np.diff(offsets)
            u_column = np.repeat(np.arange(self._n_u, dtype=np.int64), degrees)
            self._edge_cache = np.column_stack(
                [u_column, self._u_adj.neighbors.astype(np.int64)]
            )
        return self._edge_cache

    # ------------------------------------------------------------------
    # CSR access (used by performance-sensitive inner loops)
    # ------------------------------------------------------------------
    def csr(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(offsets, neighbors)`` arrays for the requested side.

        The arrays are the internal storage; callers must treat them as
        read-only.  ``offsets`` has length ``side_size(side) + 1`` and
        ``neighbors`` has length ``n_edges``.
        """
        adjacency = self._u_adj if validate_side(side) == "U" else self._v_adj
        return adjacency.offsets, adjacency.neighbors

    def csr_arrays(self) -> dict[str, np.ndarray]:
        """Expose both CSR directions for zero-copy export.

        Returns the four internal arrays keyed ``u_offsets`` / ``u_neighbors``
        / ``v_offsets`` / ``v_neighbors``.  This is the serialization surface
        used by the execution engine to place a graph into shared memory
        (:mod:`repro.engine.shm`); callers must treat the arrays as
        read-only.
        """
        return {
            "u_offsets": self._u_adj.offsets,
            "u_neighbors": self._u_adj.neighbors,
            "v_offsets": self._v_adj.offsets,
            "v_neighbors": self._v_adj.neighbors,
        }

    @classmethod
    def from_csr_arrays(
        cls,
        n_u: int,
        n_v: int,
        u_offsets: np.ndarray,
        u_neighbors: np.ndarray,
        v_offsets: np.ndarray,
        v_neighbors: np.ndarray,
        *,
        name: str = "",
    ) -> "BipartiteGraph":
        """Reconstruct a graph directly from its dual-CSR arrays.

        The inverse of :meth:`csr_arrays`: no edge validation, sorting or
        copying is performed, so a worker process can wrap shared-memory
        buffers into a fully functional (read-only) graph in O(1).  The
        arrays must describe the same edge set in both directions with
        sorted neighbor lists — exactly what :meth:`csr_arrays` of a live
        graph yields.
        """
        u_offsets = np.asarray(u_offsets, dtype=np.int64)
        u_neighbors = np.asarray(u_neighbors, dtype=np.int64)
        v_offsets = np.asarray(v_offsets, dtype=np.int64)
        v_neighbors = np.asarray(v_neighbors, dtype=np.int64)
        if u_offsets.shape[0] != n_u + 1 or v_offsets.shape[0] != n_v + 1:
            raise GraphConstructionError(
                "CSR offsets do not match the declared vertex-set sizes"
            )
        if u_neighbors.shape[0] != v_neighbors.shape[0]:
            raise GraphConstructionError(
                "U- and V-indexed CSR arrays disagree on the edge count"
            )
        graph = cls.__new__(cls)
        graph._n_u = int(n_u)
        graph._n_v = int(n_v)
        graph._n_edges = int(u_neighbors.shape[0])
        graph._u_adj = _CsrAdjacency(offsets=u_offsets, neighbors=u_neighbors)
        graph._v_adj = _CsrAdjacency(offsets=v_offsets, neighbors=v_neighbors)
        graph._edge_cache = None
        graph.name = name
        return graph

    # ------------------------------------------------------------------
    # Wedge statistics (work proxies used by RECEIPT)
    # ------------------------------------------------------------------
    def wedge_endpoint_count(self, side: str) -> int:
        """Number of wedges whose two endpoints lie on ``side``.

        A wedge ``u - v - u'`` with endpoints in ``U`` is counted once per
        unordered endpoint pair: the total is ``sum_v C(d_v, 2)``.
        """
        center_degrees = self.degrees(opposite_side(side)).astype(np.int64)
        return int(np.sum(center_degrees * (center_degrees - 1) // 2))

    def wedge_work_per_vertex(self, side: str) -> np.ndarray:
        """Per-vertex peel-work proxy ``w[u] = sum_{v in N(u)} d_v``.

        This is the quantity RECEIPT CD balances across subsets and the
        quantity HUC compares against the re-counting cost.
        """
        side = validate_side(side)
        size = self.side_size(side)
        offsets, neighbors = self.csr(side)
        if size == 0 or neighbors.size == 0:
            return np.zeros(size, dtype=np.int64)
        opposite_degrees = self.degrees(opposite_side(side)).astype(np.int64)
        per_edge_work = opposite_degrees[neighbors]
        sources = np.repeat(np.arange(size, dtype=np.int64), np.diff(offsets))
        # Integer np.add.at, not a float-weighted np.bincount: float64
        # accumulation silently loses precision once sums exceed 2**53.
        work = np.zeros(size, dtype=np.int64)
        np.add.at(work, sources, per_edge_work)
        return work

    def total_wedge_work(self, side: str) -> int:
        """Total peel work ``sum_u sum_{v in N(u)} d_v`` for the given side."""
        if self.n_edges == 0:
            return 0
        return int(self.wedge_work_per_vertex(side).sum())

    def counting_wedge_bound(self) -> int:
        """Wedge-traversal bound of vertex-priority counting.

        Equals ``sum_{(u, v) in E} min(d_u, d_v)`` which is ``O(alpha * m)``
        (Chiba & Nishizeki).  Used by HUC as the re-count cost estimate.
        """
        if self.n_edges == 0:
            return 0
        edge_array = self.edge_array()
        degrees_u = self.degrees_u()
        degrees_v = self.degrees_v()
        return int(
            np.minimum(degrees_u[edge_array[:, 0]], degrees_v[edge_array[:, 1]]).sum()
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def swap_sides(self) -> "BipartiteGraph":
        """Return a graph with the ``U`` and ``V`` roles exchanged.

        Tip decomposition of the ``V`` side of ``G`` equals tip decomposition
        of the ``U`` side of ``G.swap_sides()``; the evaluation section of
        the paper decomposes both sides of every dataset.
        """
        swapped = BipartiteGraph.__new__(BipartiteGraph)
        swapped._n_u = self._n_v
        swapped._n_v = self._n_u
        swapped._n_edges = self._n_edges
        swapped._u_adj = self._v_adj
        swapped._v_adj = self._u_adj
        swapped._edge_cache = None
        swapped.name = f"{self.name}/swapped" if self.name else ""
        return swapped

    def induced_on_u_subset(
        self,
        u_vertices: Sequence[int] | np.ndarray,
        labels: Sequence[int] | np.ndarray | None = None,
    ) -> "InducedSubgraph":
        """Construct the subgraph induced on ``(U_i, V)`` for RECEIPT FD.

        Only edges incident to a ``U`` vertex in ``u_vertices`` are retained.
        The ``V`` side keeps its original id space (the paper induces on the
        full ``V``), while the selected ``U`` vertices are renumbered densely
        so that the induced subgraph is a standalone :class:`BipartiteGraph`.

        ``labels`` (one per selected vertex, non-decreasing along
        ``u_vertices``) induces several subsets at once: each ``V`` vertex
        becomes one center per label among its selected neighbours, numbered
        densely in (label, ``V`` id) order, so no wedge joins two labels and
        each label's part is its own induced subgraph up to center ids.
        FD peels a worker's whole share of subsets on one such graph.

        Both CSR directions are built straight from this graph's (already
        valid, sorted) ``U`` rows: the selected rows are gathered in subset
        order, and one stable sort by center id yields the center rows with
        their new ``U`` ids ascending — the same arrays the validating
        constructor would build from the filtered edge list, in time linear
        in the subset's edges plus one sort.

        Returns
        -------
        InducedSubgraph
            Wrapper holding the new graph and the old-id <-> new-id mapping.
        """
        selected = np.asarray(u_vertices, dtype=np.int64)
        if selected.size and (selected.min() < 0 or selected.max() >= self._n_u):
            raise GraphConstructionError("induced subset contains out-of-range U vertices")

        new_ids = np.arange(selected.size, dtype=np.int64)
        new_of_old = np.full(self._n_u, -1, dtype=np.int64)
        new_of_old[selected] = new_ids
        # A repeated id maps back to only one of its positions, so the round
        # trip breaks at the others.
        if not np.array_equal(new_of_old[selected], new_ids):
            raise GraphConstructionError("induced subset contains duplicate U vertices")

        u_neighbors, u_degrees = gather_rows(self._u_adj.offsets, self._u_adj.neighbors, selected)
        if labels is None:
            centers, n_centers = u_neighbors, self._n_v
        else:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != selected.shape:
                raise GraphConstructionError("induced subset needs one label per U vertex")
            if labels.size > 1 and bool(np.any(labels[1:] < labels[:-1])):
                raise GraphConstructionError("induced subset labels must be non-decreasing")
            # Labels never decrease along the rows, so numbering the (label, V)
            # keys in sorted order keeps every row's centers ascending.
            keys = np.repeat(labels, u_degrees) * self._n_v + u_neighbors
            unique_keys, centers = np.unique(keys, return_inverse=True)
            n_centers = unique_keys.size
        by_center = np.argsort(centers, kind="stable")
        subgraph = BipartiteGraph.from_csr_arrays(
            selected.size,
            n_centers,
            segment_offsets(u_degrees),
            centers,
            segment_offsets(np.bincount(centers, minlength=n_centers)),
            segment_ids(u_degrees)[by_center],
            name=f"{self.name}/induced" if self.name else "induced",
        )
        return InducedSubgraph(graph=subgraph, u_old_of_new=selected.copy(), u_new_of_old=new_of_old)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"BipartiteGraph({label} |U|={self._n_u}, |V|={self._n_v}, "
            f"|E|={self._n_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self._n_u == other._n_u
            and self._n_v == other._n_v
            and self._n_edges == other._n_edges
            and np.array_equal(self._u_adj.offsets, other._u_adj.offsets)
            and np.array_equal(self._u_adj.neighbors, other._u_adj.neighbors)
        )

    def __hash__(self) -> int:
        return hash((self._n_u, self._n_v, self._n_edges))


@dataclass(frozen=True)
class InducedSubgraph:
    """A subgraph induced on a subset of ``U`` together with id mappings.

    Attributes
    ----------
    graph:
        The induced :class:`BipartiteGraph`; its ``U`` ids are dense
        ``0 .. len(subset) - 1`` and its ``V`` ids match the parent graph.
    u_old_of_new:
        ``u_old_of_new[new_id] = old_id`` mapping back to the parent graph.
    u_new_of_old:
        Inverse mapping with ``-1`` for parent vertices not in the subset.
    """

    graph: BipartiteGraph
    u_old_of_new: np.ndarray
    u_new_of_old: np.ndarray = field(repr=False)

    def to_parent_u(self, new_id: int) -> int:
        """Map an induced-subgraph ``U`` id back to the parent graph id."""
        return int(self.u_old_of_new[new_id])

    def to_induced_u(self, old_id: int) -> int:
        """Map a parent-graph ``U`` id to the induced id (or ``-1``)."""
        return int(self.u_new_of_old[old_id])


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _as_edge_array(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    if isinstance(edges, np.ndarray):
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            return edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphConstructionError(
                f"edge array must have shape (m, 2), got {edge_array.shape}"
            )
        return edge_array
    edge_list = list(edges)
    if not edge_list:
        return np.zeros((0, 2), dtype=np.int64)
    try:
        edge_array = np.asarray(edge_list, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise GraphConstructionError(f"edges are not integer pairs: {exc}") from exc
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphConstructionError("each edge must be a (u, v) pair")
    return edge_array


def _validate_edges(
    edge_array: np.ndarray, n_u: int, n_v: int, *, allow_duplicates: bool
) -> np.ndarray:
    if edge_array.shape[0] == 0:
        return edge_array
    if edge_array.min() < 0:
        raise GraphConstructionError("vertex ids must be non-negative")
    if edge_array[:, 0].max() >= n_u:
        raise GraphConstructionError(
            f"edge references U vertex {int(edge_array[:, 0].max())} but n_u={n_u}"
        )
    if edge_array[:, 1].max() >= n_v:
        raise GraphConstructionError(
            f"edge references V vertex {int(edge_array[:, 1].max())} but n_v={n_v}"
        )
    deduplicated = np.unique(edge_array, axis=0)
    if deduplicated.shape[0] != edge_array.shape[0] and not allow_duplicates:
        raise GraphConstructionError(
            f"{edge_array.shape[0] - deduplicated.shape[0]} duplicate edges present; "
            "pass allow_duplicates=True to collapse them"
        )
    return deduplicated


def _build_csr(sources: np.ndarray, targets: np.ndarray, n_sources: int) -> _CsrAdjacency:
    counts = np.bincount(sources, minlength=n_sources).astype(np.int64)
    offsets = np.zeros(n_sources + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.lexsort((targets, sources))
    neighbors = targets[order].astype(np.int64)
    return _CsrAdjacency(offsets=offsets, neighbors=neighbors)
