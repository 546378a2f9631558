"""Construction and queries over the k-tip hierarchy.

Tip numbers are a space-efficient encoding of the full hierarchy of k-tips
(Definition 1): the vertices of every k-tip have tip number at least ``k``
and are pairwise connected through butterflies.  This module rebuilds the
hierarchy from a decomposition result — the levels, the vertex set of each
level, and the butterfly-connected components that constitute the actual
k-tips — which is what downstream applications (community extraction, spam
group detection) consume.  The components come from the wedge kernels'
repeated-pair count over the level's induced subgraph (:mod:`repro.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.bipartite import BipartiteGraph, validate_side
from ..kernels import WedgeWorkspace, count_pair_wedges, gather_rows, iter_batch_wedge_chunks
from ..peeling.base import TipDecompositionResult

__all__ = ["TipHierarchy", "butterfly_connected_components", "k_tip_vertices", "level_wedge_work"]


def k_tip_vertices(result: TipDecompositionResult, k: int) -> np.ndarray:
    """Vertices whose tip number is at least ``k`` (the union of all k-tips)."""
    return result.vertices_with_tip_at_least(k)


def level_wedge_work(graph: BipartiteGraph, vertices: np.ndarray, side: str = "U") -> int:
    """Wedge endpoints :func:`butterfly_connected_components` gathers for ``vertices``.

    The sum over the centres of ``vertices`` of the centre's degree within
    ``vertices``, squared — the size of the induced subgraph's start-major
    wedge gather, found from one row gather before any pair key is built.
    """
    offsets, neighbors = graph.csr(validate_side(side))
    centers, _ = gather_rows(offsets, neighbors, vertices)
    degrees = np.bincount(centers)
    return int(degrees @ degrees)


def butterfly_connected_components(
    graph: BipartiteGraph, vertices: np.ndarray, side: str = "U"
) -> list[np.ndarray]:
    """Split ``vertices`` into butterfly-connected components.

    Two same-side vertices are butterfly-adjacent when they share at least
    one butterfly, i.e. at least two common neighbours.  The subgraph
    induced on ``vertices`` keeps every centre, so one repeated-pair count
    (:func:`~repro.kernels.count_pair_wedges`) over its start-major wedge
    gather finds every butterfly-adjacent pair.  The gather streams in
    wedge-budget chunks on a workspace of its own, and each chunk's pairs
    fold into a vectorised union-find, so peak scratch follows the wedge
    budget rather than the level's pair count.

    Components come in order of their first vertex in ``vertices``; each
    holds its members as ascending int64 ids.  A repeated or out-of-range
    id raises :class:`~repro.errors.GraphConstructionError`.
    """
    side = validate_side(side)
    vertices = np.asarray(vertices, dtype=np.int64)
    peel_side = graph if side == "U" else graph.swap_sides()
    induced = peel_side.induced_on_u_subset(vertices).graph
    n = vertices.size
    if n == 0:
        return []
    # Local id i is position i of ``vertices``; the roots of ``parent`` are
    # each component's smallest local id, and every entry points at its root.
    local = np.arange(n, dtype=np.int64)
    parent = local.copy()
    every_member = np.ones(n, dtype=bool)
    u_offsets, u_neighbors = induced.csr("U")
    v_offsets, v_neighbors = induced.csr("V")
    workspace = WedgeWorkspace()
    for lo, hi, endpoints, wedges_per_vertex in iter_batch_wedge_chunks(
        u_neighbors, np.diff(u_offsets), v_offsets, v_neighbors, workspace=workspace
    ):
        # Every endpoint is a level member, so no alive filter: a pair the
        # count keeps shares at least two centres, i.e. a butterfly.
        pairs = count_pair_wedges(
            endpoints, local[lo:hi], wedges_per_vertex, local, every_member,
            filter_alive=False, workspace=workspace,
        )
        _union_pairs(parent, pairs.segments, pairs.endpoints)
    order = np.lexsort((vertices, parent))
    boundaries = np.flatnonzero(np.diff(parent[order])) + 1
    return np.split(vertices[order], boundaries)


def _union_pairs(parent: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
    """Union each ``(first[i], second[i])`` into the flat forest ``parent``.

    Each round hooks the larger root of every still-split pair under the
    smaller, then pointer-jumps until every entry points at its root again.
    ``np.minimum.at`` keeps one hook per root, so a pair whose hook lost to
    a smaller one stays split and is retried on the next round.
    """
    while first.size:
        first, second = parent[first], parent[second]
        split = first != second
        first, second = first[split], second[split]
        if first.size == 0:
            return
        np.minimum.at(parent, np.maximum(first, second), np.minimum(first, second))
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent[:] = grandparent


@dataclass
class TipHierarchy:
    """The k-tip hierarchy derived from a tip decomposition result.

    Attributes
    ----------
    graph:
        The decomposed graph.
    result:
        The decomposition result the hierarchy was built from.
    """

    graph: BipartiteGraph
    result: TipDecompositionResult

    @property
    def levels(self) -> np.ndarray:
        """Sorted distinct tip numbers present in the decomposition."""
        return np.unique(self.result.tip_numbers)

    def vertices_at(self, k: int) -> np.ndarray:
        """Vertices of the union of all k-tips."""
        return k_tip_vertices(self.result, k)

    def subgraph_at(self, k: int):
        """Induced subgraph (plus id mapping) on the k-tip vertex set."""
        return self.graph.induced_on_u_subset(self.vertices_at(k)) \
            if self.result.side == "U" else \
            self.graph.swap_sides().induced_on_u_subset(self.vertices_at(k))

    def tips_at(self, k: int) -> list[np.ndarray]:
        """The individual k-tips: butterfly-connected components at level ``k``."""
        return butterfly_connected_components(self.graph, self.vertices_at(k), self.result.side)

    def strongest_tip(self) -> np.ndarray:
        """Vertices of the densest non-trivial level (maximum tip number)."""
        top = self.result.max_tip_number
        return self.vertices_at(top) if top > 0 else np.zeros(0, dtype=np.int64)

    def level_sizes(self) -> dict[int, int]:
        """Number of vertices at or above each distinct tip number."""
        tip_numbers = self.result.tip_numbers
        return {int(level): int(np.count_nonzero(tip_numbers >= level)) for level in self.levels}
