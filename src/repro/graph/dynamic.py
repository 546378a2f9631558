"""Mutable adjacency view used while peeling, including DGM.

Peeling never mutates the parent :class:`~repro.graph.bipartite.BipartiteGraph`.
Instead, each decomposition run owns a :class:`PeelableAdjacency` that tracks
which vertices of the peeled side have been deleted and — when Dynamic Graph
Maintenance (DGM, Sec. 4.2 of the paper) is enabled — periodically compacts
the center-side adjacency so that wedges incident on already-peeled vertices
are no longer traversed.

The center-side adjacency is stored as a single flat CSR (``offsets`` +
``neighbors`` arrays) rather than a Python list of per-center arrays: batch
peeling gathers the wedges of thousands of vertices in one indexed load
(:func:`repro.kernels.csr.gather_rows`) and DGM compaction filters the whole
structure in one cumulative-sum pass (:func:`repro.kernels.csr.compact_csr`),
with no per-center Python loop in either path.

Terminology: the *peeled side* is the side being decomposed (``U`` in the
paper's notation) and the *center side* is the other one (``V``); a wedge is
``u - v - u'`` with ``u, u'`` on the peeled side and ``v`` in the center.
"""

from __future__ import annotations

import numpy as np

from ..kernels.csr import compact_csr, gather_rows
from .bipartite import BipartiteGraph, opposite_side, validate_side

__all__ = ["PeelableAdjacency"]


class PeelableAdjacency:
    """Adjacency view supporting vertex deletion and periodic compaction.

    Parameters
    ----------
    graph:
        The parent graph.
    peel_side:
        Which side ("U" or "V") is being peeled.
    enable_dgm:
        When ``True``, :meth:`maybe_compact` rebuilds the center adjacency
        after ``compaction_interval`` wedges have been traversed since the
        previous rebuild.  When ``False`` the adjacency is never compacted
        and peeled vertices keep being skipped one by one (the RECEIPT--
        behaviour of the ablation study).
    compaction_interval:
        Number of traversed wedges between compactions.  The paper uses the
        edge count ``m`` so that DGM adds only linear extra work; that is the
        default here as well.
    narrow_ids:
        Store center-adjacency neighbor values as int32 when the peeled
        side fits (the default).  Callers running the legacy int64 pipeline
        (``WedgeWorkspace.legacy()``) pass ``False`` so the benchmark
        baseline matches the pre-arena layout.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        peel_side: str = "U",
        *,
        enable_dgm: bool = True,
        compaction_interval: int | None = None,
        narrow_ids: bool = True,
    ):
        self._graph = graph
        self._peel_side = validate_side(peel_side)
        self._center_side = opposite_side(self._peel_side)

        self._n_peel = graph.side_size(self._peel_side)
        self._n_center = graph.side_size(self._center_side)

        # Center-side adjacency as flat CSR (center -> peeled-side neighbor
        # ids), copied so compaction can rebuild it independently.  The
        # neighbor values are peeled-side ids, so they narrow to int32
        # whenever that side fits — every wedge-scale gather downstream then
        # moves half the bytes (the parent graph's CSR stays int64).
        offsets, neighbors = graph.csr(self._center_side)
        value_dtype = (
            np.int32
            if narrow_ids and self._n_peel <= np.iinfo(np.int32).max
            else np.int64
        )
        self._center_offsets: np.ndarray = offsets.copy()
        self._center_neighbors: np.ndarray = neighbors.astype(value_dtype, copy=True)
        self._alive = np.ones(self._n_peel, dtype=bool)

        self.enable_dgm = enable_dgm
        self.compaction_interval = (
            int(compaction_interval) if compaction_interval is not None else max(graph.n_edges, 1)
        )
        self._wedges_since_compaction = 0
        self.compactions_performed = 0
        self.entries_removed = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The parent (immutable) graph."""
        return self._graph

    @property
    def peel_side(self) -> str:
        return self._peel_side

    @property
    def n_alive(self) -> int:
        """Number of peeled-side vertices not yet deleted."""
        return int(self._alive.sum())

    def is_alive(self, vertex: int) -> bool:
        """Whether a peeled-side vertex is still present."""
        return bool(self._alive[vertex])

    def alive_mask(self) -> np.ndarray:
        """Boolean mask over the peeled side (read-only view)."""
        return self._alive

    def alive_vertices(self) -> np.ndarray:
        """Ids of the peeled-side vertices that are still present."""
        return np.flatnonzero(self._alive).astype(np.int64)

    # ------------------------------------------------------------------
    # Deletion and traversal
    # ------------------------------------------------------------------
    def peel_neighbors(self, vertex: int) -> np.ndarray:
        """Center-side neighbors of a peeled-side vertex (static, from parent)."""
        return self._graph.neighbors(vertex, self._peel_side)

    def peel_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Static CSR of the peeled side (vertex -> center neighbors)."""
        return self._graph.csr(self._peel_side)

    def center_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (possibly stale) center-side CSR ``(offsets, neighbors)``.

        The arrays are the live storage; callers must treat them as
        read-only.  Entries of already-peeled vertices linger until the next
        compaction — RECEIPT's update routine tolerates them because updates
        to already-peeled vertices have no effect (Lemma 2).
        """
        return self._center_offsets, self._center_neighbors

    def center_neighbors(self, center: int) -> np.ndarray:
        """Current peeled-side adjacency of a center vertex.

        May still contain already-peeled vertices if no compaction happened
        since they were deleted; callers filter with :meth:`alive_mask` when
        exactness matters.
        """
        return self._center_neighbors[
            self._center_offsets[center]: self._center_offsets[center + 1]
        ]

    def two_hop_multiset(self, vertex: int) -> np.ndarray:
        """Concatenated peeled-side neighbors of all centers adjacent to ``vertex``.

        This is the raw wedge multiset the ``update`` routine of Alg. 2
        aggregates; the length of the returned array is exactly the number of
        wedge endpoints touched (including ``vertex`` itself and possibly
        stale peeled entries).
        """
        centers = self.peel_neighbors(vertex)
        if centers.size == 0:
            return np.zeros(0, dtype=np.int64)
        gathered, _ = gather_rows(self._center_offsets, self._center_neighbors, centers)
        return gathered

    def mark_peeled(self, vertex: int) -> None:
        """Delete a single peeled-side vertex."""
        self._alive[vertex] = False

    def mark_peeled_many(self, vertices: np.ndarray) -> None:
        """Delete a batch of peeled-side vertices."""
        vertices = np.asarray(vertices, dtype=np.int64)
        self._alive[vertices] = False

    # ------------------------------------------------------------------
    # Dynamic Graph Maintenance
    # ------------------------------------------------------------------
    def record_traversal(self, n_wedges: int) -> None:
        """Account for traversed wedges; drives the compaction schedule."""
        self._wedges_since_compaction += int(n_wedges)

    def maybe_compact(self) -> bool:
        """Compact the adjacency if DGM is enabled and the interval elapsed.

        Returns ``True`` when a compaction was performed.
        """
        if not self.enable_dgm:
            return False
        if self._wedges_since_compaction < self.compaction_interval:
            return False
        self.compact()
        return True

    def compact(self) -> int:
        """Remove peeled vertices from the center adjacency in one pass.

        Returns the number of adjacency entries removed.  The cost is linear
        in the current total adjacency size, matching the paper's argument
        that DGM does not change the asymptotic complexity when triggered at
        most once per ``m`` traversed wedges.
        """
        keep = self._alive[self._center_neighbors]
        removed = int(self._center_neighbors.size - keep.sum())
        if removed:
            self._center_offsets, self._center_neighbors = compact_csr(
                self._center_offsets, self._center_neighbors, keep
            )
        self._wedges_since_compaction = 0
        self.compactions_performed += 1
        self.entries_removed += removed
        return removed

    def current_center_sizes(self) -> np.ndarray:
        """Current (possibly stale) center adjacency sizes.

        Without DGM these stay at the original degrees; with DGM they shrink
        as vertices are peeled, which is what reduces wedge traversal.
        """
        return np.diff(self._center_offsets)
