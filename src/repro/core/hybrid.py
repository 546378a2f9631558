"""Hybrid Update Computation (HUC, Sec. 4.1).

When a CD peeling iteration is about to delete a set of vertices whose
cumulative wedge work exceeds the cost of simply re-counting butterflies on
the residual graph, RECEIPT re-counts instead of peeling.  Correctness is
unaffected: after all vertices of earlier subsets are removed, the support
of a remaining vertex equals the number of butterflies it shares with the
remaining vertices, which is exactly what a fresh count on the residual
graph produces.

The cost comparison uses

* ``C_peel = sum_{u in activeSet} w[u]`` with ``w[u] = sum_{v in N(u)} d_v``
  (the wedge work of the vertices about to be peeled), and
* ``C_rcnt = sum_{(u, v) in E, u alive} min(d_u, d_v')`` where ``d_v'`` is
  the residual degree of the center vertex — the traversal bound of
  vertex-priority counting on the residual graph.

The decision only needs to know which side of ``C_peel`` the re-count cost
falls on, so CD does not evaluate ``C_rcnt`` (an O(|E|) pass) every round:
:class:`RecountCostBound` carries a lower bound ``LB <= C_rcnt`` through the
rounds in time proportional to the removed vertices' edges, and CD peels
outright whenever ``C_peel <= f * LB``.  Only when the bound cannot decide
does CD call :func:`recount_cost`, and the exact value becomes the new
bound, so every decision equals the one the exact test makes.  CD hands
the bound to that call: the bound also keeps the residual edges, which it
compacts at each exact evaluation, so the evaluations together cost the
sum of the residual edge counts rather than one O(|E|) pass each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..butterfly.counting import count_per_vertex_priority
from ..graph.bipartite import BipartiteGraph
from ..kernels.csr import gather_rows, segment_ids

__all__ = [
    "RecountCostBound",
    "RecountOutcome",
    "peel_cost",
    "recount_cost",
    "should_recount",
    "recount_supports",
]


@dataclass(frozen=True)
class RecountOutcome:
    """Result of a HUC re-count on the residual graph.

    Attributes
    ----------
    supports:
        Butterfly counts of the still-alive vertices, indexed by the parent
        graph's ``U`` ids (entries of peeled vertices are zero).
    wedges_traversed:
        Wedges traversed by the counting kernel (charged as counting work).
    """

    supports: np.ndarray
    wedges_traversed: int


def peel_cost(wedge_work: np.ndarray, active_set: np.ndarray) -> int:
    """Wedge cost of peeling ``active_set`` (``C_peel``)."""
    if active_set.size == 0:
        return 0
    return int(wedge_work[active_set].sum())


def recount_cost(
    graph: BipartiteGraph,
    alive_mask: np.ndarray,
    bound: "RecountCostBound | None" = None,
) -> int:
    """Traversal bound of re-counting butterflies on the residual graph (``C_rcnt``).

    The residual graph keeps all ``V`` vertices and only the alive ``U``
    vertices; the bound is ``sum over residual edges of min(d_u,
    residual d_v)``.  The residual edges are read from the ``U``-side CSR,
    where every alive vertex's edges form one contiguous row.

    ``bound``, a :class:`RecountCostBound` over ``graph`` whose residual
    set is ``alive_mask`` itself, gives the same value from the residual
    edges it tracks, in time proportional to them instead of to ``|E|``.
    """
    if bound is not None:
        if alive_mask is not bound.residual:
            raise ValueError("alive_mask must be the bound's own residual mask")
        return bound.exact_cost()
    alive_mask = np.asarray(alive_mask, dtype=bool)
    offsets, neighbors = graph.csr("U")
    degrees_u = np.diff(offsets)
    residual_v = neighbors[np.repeat(alive_mask, degrees_u)]
    if residual_v.size == 0:
        return 0
    alive_degrees = degrees_u[alive_mask]
    residual_center_degree = np.bincount(residual_v, minlength=graph.n_v)
    return int(np.minimum(
        np.repeat(alive_degrees, alive_degrees), residual_center_degree[residual_v]
    ).sum())


class RecountCostBound:
    """Residual center degrees plus a lower bound on ``C_rcnt``, kept per round.

    Tracks the residual set ``R`` (the ``U`` vertices neither peeled nor
    about to be), the exact residual center degrees ``d_v'`` and a bound
    :attr:`lower` with ``lower <= recount_cost(graph, residual)``.  It
    starts exact for ``R = U``.  :meth:`remove` shrinks ``R`` by a batch
    ``A`` in O(sum of ``d_a``): the removed edges' exact terms
    ``min(d_a, d_v')`` leave the sum, and a remaining edge ``(u, v)`` loses at
    most ``Δ_v`` (the drop of ``d_v'``), so subtracting ``Δ_v * d_v'(new)``
    per center keeps the bound valid without touching the remaining edges.

    :meth:`exact_cost` evaluates ``C_rcnt`` itself over the residual edges
    only: it keeps their owners and centers, drops the removed owners'
    edges at each evaluation, and reads ``d_v'`` from the tracked degrees.
    """

    def __init__(self, graph: BipartiteGraph):
        self._offsets, self._neighbors = graph.csr("U")
        self._degrees = np.diff(self._offsets)
        self.residual = np.ones(graph.n_u, dtype=bool)
        self.residual_degrees = graph.degrees_v().astype(np.int64)
        self._edge_owners = segment_ids(self._degrees)
        self._edge_centers = self._neighbors
        self.lower = self.exact_cost()

    def remove(self, vertices: np.ndarray) -> None:
        """Drop ``vertices`` (residual, no repeats) from ``R``; lower the bound."""
        self.residual[vertices] = False
        centers, degrees = gather_rows(self._offsets, self._neighbors, vertices)
        if centers.size == 0:
            return
        removed_terms = int(np.minimum(
            np.repeat(degrees, degrees), self.residual_degrees[centers]
        ).sum())
        np.subtract.at(self.residual_degrees, centers, 1)
        # Each center appears Δ_v times among the removed edges.
        self.lower -= removed_terms + int(self.residual_degrees[centers].sum())

    def exact_cost(self) -> int:
        """``C_rcnt`` of the current residual set, over its edges only."""
        keep = self.residual[self._edge_owners]
        self._edge_owners = self._edge_owners[keep]
        self._edge_centers = self._edge_centers[keep]
        return int(np.minimum(
            self._degrees[self._edge_owners], self.residual_degrees[self._edge_centers]
        ).sum())

    def peel_is_cheaper(self, cost_of_peeling: int, cost_factor: float) -> bool:
        """Whether ``C_peel <= f * LB`` already rules out a re-count (``f >= 0``)."""
        return cost_of_peeling <= cost_factor * self.lower


def should_recount(cost_of_peeling: int, cost_of_recounting: int) -> bool:
    """The HUC decision: re-count when peeling would traverse more wedges."""
    return cost_of_peeling > cost_of_recounting


def recount_supports(
    graph: BipartiteGraph,
    alive_mask: np.ndarray,
    *,
    alive_vertices: np.ndarray | None = None,
    workspace=None,
) -> RecountOutcome:
    """Re-count butterflies of the alive ``U`` vertices on the residual graph.

    Builds the subgraph induced on the alive vertices (and the full ``V``
    side, as butterflies only need their two ``U`` endpoints alive) and runs
    the vertex-priority counting kernel on it.  ``alive_vertices`` may be
    supplied when the caller already materialised ``flatnonzero(alive_mask)``
    (CD's range loop does); when every vertex is still alive the induction
    is skipped entirely and the kernel runs on ``graph`` itself — same
    counts, same wedge traversal, no subgraph rebuild.  ``workspace``
    carries the caller's scratch arena into the counting kernel so HUC
    recounts share the peel run's buffers and budget.
    """
    alive_mask = np.asarray(alive_mask, dtype=bool)
    supports = np.zeros(alive_mask.shape[0], dtype=np.int64)
    if alive_vertices is None:
        alive_vertices = np.flatnonzero(alive_mask)
    if alive_vertices.size == 0:
        return RecountOutcome(supports=supports, wedges_traversed=0)

    if alive_vertices.size == alive_mask.shape[0]:
        counts = count_per_vertex_priority(graph, workspace=workspace)
        supports[:] = counts.u_counts
        return RecountOutcome(supports=supports, wedges_traversed=counts.wedges_traversed)

    induced = graph.induced_on_u_subset(alive_vertices)
    counts = count_per_vertex_priority(induced.graph, workspace=workspace)
    supports[alive_vertices] = counts.u_counts
    return RecountOutcome(supports=supports, wedges_traversed=counts.wedges_traversed)
