"""Vertex relabelling utilities.

The vertex-priority butterfly counting algorithm (Alg. 1 in the paper,
following Chiba & Nishizeki and Wang et al.) relabels all vertices of
``U ∪ V`` in decreasing order of degree and only traverses wedges whose end
point has a higher label than both the start and the middle point.  This
module computes that global priority ordering without physically rebuilding
the graph: every vertex receives a *rank* and the counting kernels compare
ranks instead of raw ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteGraph

__all__ = ["DegreePriority", "degree_priority", "degree_sorted_vertices"]


@dataclass(frozen=True)
class DegreePriority:
    """Global degree ranking over ``U ∪ V``.

    Rank 0 is the highest-degree vertex.  Ties are broken deterministically:
    first by side (``U`` before ``V``), then by vertex id, so repeated runs
    and both graph orientations produce identical traversal orders.

    Attributes
    ----------
    u_rank, v_rank:
        ``u_rank[u]`` / ``v_rank[v]`` is the global rank of the vertex.
    order_sides, order_ids:
        Parallel arrays listing vertices in rank order; ``order_sides`` holds
        0 for ``U`` and 1 for ``V``.
    """

    u_rank: np.ndarray
    v_rank: np.ndarray
    order_sides: np.ndarray
    order_ids: np.ndarray

    def rank(self, vertex: int, side: str) -> int:
        """Global rank of one vertex (lower rank = higher priority)."""
        return int(self.u_rank[vertex] if side.upper() == "U" else self.v_rank[vertex])

    @property
    def n_vertices(self) -> int:
        return int(self.order_ids.shape[0])


def degree_priority(graph: BipartiteGraph) -> DegreePriority:
    """Compute the decreasing-degree global ranking used by Alg. 1."""
    degrees = np.concatenate([graph.degrees_u(), graph.degrees_v()]).astype(np.int64)
    n_vertices = degrees.shape[0]
    position = np.arange(n_vertices, dtype=np.int64)
    # Descending degree first; the position in the U-then-V concatenation
    # breaks ties (U before V, then ascending id).  The keys are distinct,
    # so one unstable argsort gives the order a lexsort would.
    if n_vertices:
        order = np.argsort((degrees.max() - degrees) * n_vertices + position)
    else:
        order = position
    ranks = np.empty(n_vertices, dtype=np.int64)
    ranks[order] = position
    on_v = order >= graph.n_u

    return DegreePriority(
        u_rank=ranks[: graph.n_u].copy(),
        v_rank=ranks[graph.n_u:].copy(),
        order_sides=on_v.astype(np.int8),
        order_ids=order - on_v * np.int64(graph.n_u),
    )


def degree_sorted_vertices(graph: BipartiteGraph, side: str, *, descending: bool = True) -> np.ndarray:
    """Vertex ids of one side sorted by degree.

    Useful for workload-aware scheduling experiments and for inspecting the
    degree skew of generated datasets.
    """
    degrees = graph.degrees(side)
    order = np.argsort(degrees, kind="stable")
    if descending:
        order = order[::-1]
    return order.astype(np.int64)
