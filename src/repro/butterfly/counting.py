"""Per-vertex butterfly counting (Alg. 1 of the paper).

The production kernel is the *vertex-priority* algorithm of Chiba &
Nishizeki as refined by Wang et al.: vertices are ranked by decreasing
degree and a wedge ``sp - mp - ep`` is traversed only from the start vertex
``sp`` when the end point ``ep`` outranks both ``sp`` and ``mp``.  This
bounds traversal by ``O(sum_{(u,v) in E} min(d_u, d_v)) = O(alpha * m)``
wedges while still attributing every butterfly to all four of its vertices.

The enumeration is *start-major*: a rank-sorted adjacency index is built
once per side (:func:`_build_ranked_index`), the rank-filtered wedge prefix
of every ``(start, mid)`` edge is located with one global ``searchsorted``,
and the wedge endpoints are gathered and aggregated start-by-start in
wedge-budgeted chunks.  Because every wedge of a ``(start, endpoint)`` pair
is enumerated under its start vertex, chunking over starts folds partial
``C(wedges, 2)`` results into the running per-vertex counts *exactly* —
peak scratch is bounded by the workspace's wedge budget while counts and
the wedge-traversal counter stay bit-identical to the monolithic
enumeration (the wedge set is precisely the one Alg. 1 visits).

Two entry points are provided:

* :func:`count_per_vertex` — the public API; picks an algorithm by name.
* :func:`count_per_vertex_priority` — vertex-priority counting, the kernel
  RECEIPT and ParB initialise supports with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..graph.bipartite import BipartiteGraph
from ..graph.relabel import degree_priority
from ..kernels.csr import gather_ranges, segment_ids, segment_sums
from ..kernels.workspace import (
    WedgeWorkspace,
    budget_spans,
    workspace_or_default,
)
from .naive import count_per_vertex_wedge

__all__ = [
    "ButterflyCounts",
    "count_per_vertex",
    "count_per_vertex_priority",
    "count_total_butterflies",
]


@dataclass(frozen=True)
class ButterflyCounts:
    """Per-vertex butterfly counts for both sides plus traversal statistics.

    Attributes
    ----------
    u_counts, v_counts:
        ``u_counts[u]`` is the number of butterflies vertex ``u`` (of side
        ``U``) participates in; likewise for ``v_counts``.
    wedges_traversed:
        Wedge endpoints touched by the counting kernel.
    algorithm:
        Name of the kernel that produced the counts.
    """

    u_counts: np.ndarray
    v_counts: np.ndarray
    wedges_traversed: int
    algorithm: str

    @property
    def total_butterflies(self) -> int:
        """Total number of butterflies in the graph.

        Every butterfly has exactly two vertices on each side, so the total
        is half the sum of either side's per-vertex counts.
        """
        return int(self.u_counts.sum()) // 2

    def counts(self, side: str) -> np.ndarray:
        """Per-vertex counts for the requested side."""
        return self.u_counts if side.upper() == "U" else self.v_counts


@dataclass(frozen=True)
class _RankedWedgeIndex:
    """Rank-sorted flat CSR of one (middle) side plus its lookup keys.

    ``neighbors`` holds every middle vertex's endpoint-side neighbours
    sorted by increasing endpoint rank; ``entry_keys[e] = mid(e) *
    rank_bound + rank(neighbor(e))`` is then globally sorted, so the
    rank-filtered prefix length of any ``(mid, cutoff)`` query is one
    ``searchsorted`` away.  Neighbor ids are narrowed to int32 when the
    endpoint side fits, halving the bytes of every wedge gather.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    entry_keys: np.ndarray
    rank_bound: int


def _build_ranked_index(
    graph: BipartiteGraph,
    mid_side: str,
    endpoint_ranks: np.ndarray,
    workspace: WedgeWorkspace,
) -> _RankedWedgeIndex:
    offsets, neighbors = graph.csr(mid_side)
    # Ranks are a global permutation of U ∪ V, so cutoff queries range up
    # to the total vertex count.
    rank_bound = graph.n_u + graph.n_v + 1
    row_base = segment_ids(np.diff(offsets)) * np.int64(rank_bound)
    entry_keys = row_base + endpoint_ranks[neighbors]
    # Sorting the keys orders every row by rank in place of a lexsort; the
    # rows keep their positions, so subtracting the row base recovers the
    # sorted ranks, and rank -> vertex is one lookup (ranks are distinct).
    entry_keys.sort()
    ids_dtype = workspace.ids_dtype(endpoint_ranks.shape[0])
    vertex_of_rank = np.empty(rank_bound, dtype=ids_dtype)
    vertex_of_rank[endpoint_ranks] = np.arange(endpoint_ranks.shape[0], dtype=ids_dtype)
    np.subtract(entry_keys, row_base, out=row_base)
    return _RankedWedgeIndex(
        offsets=offsets,
        neighbors=vertex_of_rank[row_base],
        entry_keys=entry_keys,
        rank_bound=rank_bound,
    )


def _count_priority_side(
    graph: BipartiteGraph,
    mid_side: str,
    mid_ranks: np.ndarray,
    endpoint_ranks: np.ndarray,
    endpoint_counts: np.ndarray,
    mid_counts: np.ndarray,
    workspace: WedgeWorkspace,
) -> int:
    """Aggregate every priority-filtered wedge centred on ``mid_side``.

    Starts and endpoints lie on the side opposite ``mid_side``.  For each
    start ``sp`` the wedges ``sp - mp - ep`` with ``rank(ep) <
    min(rank(sp), rank(mp))`` are gathered through the ranked index and
    grouped by ``(start, endpoint)`` pair: the pair's two endpoint-side
    vertices each gain ``C(wedges, 2)`` butterflies and every wedge's
    middle vertex gains ``wedges - 1``.  Work is streamed in
    wedge-budgeted spans of starts; partial sums fold exactly because a
    pair's wedges never cross its start's span.  Returns the number of
    wedges traversed (one per gathered endpoint).
    """
    start_side = "U" if mid_side == "V" else "V"
    index = _build_ranked_index(graph, mid_side, endpoint_ranks, workspace)
    entry_offsets, mids = graph.csr(start_side)
    if mids.size == 0:
        return 0
    # Rank-filtered prefix length of every (start, mid) edge in one global
    # searchsorted over the index keys.
    mids_per_start = np.diff(entry_offsets)
    cutoffs = np.minimum(np.repeat(endpoint_ranks, mids_per_start), mid_ranks[mids])
    positions = np.searchsorted(
        index.entry_keys, mids * np.int64(index.rank_bound) + cutoffs, side="left"
    )
    row_starts = index.offsets[mids]
    prefix = positions - row_starts
    wedges_per_start = segment_sums(prefix, mids_per_start)

    n_endpoint = np.int64(endpoint_counts.shape[0])
    wedges_traversed = 0
    for lo, hi in budget_spans(wedges_per_start, workspace.wedge_budget):
        e_lo, e_hi = int(entry_offsets[lo]), int(entry_offsets[hi])
        endpoints = gather_ranges(
            index.neighbors, row_starts[e_lo:e_hi], prefix[e_lo:e_hi],
            workspace=workspace, name="pc_ep",
        )
        n_wedges = int(endpoints.shape[0])
        if n_wedges == 0:
            continue
        wedges_traversed += n_wedges

        # (start, endpoint) pair keys, narrowed to the span's bound.
        span = hi - lo
        key_dtype = workspace.ids_dtype(span * int(n_endpoint))
        keys = np.repeat(
            (np.arange(span, dtype=np.int64) * n_endpoint).astype(key_dtype),
            wedges_per_start[lo:hi],
        )
        np.add(keys, endpoints, out=keys, casting="unsafe")
        sort_keys = workspace.take("pc_sort", n_wedges, key_dtype)
        np.copyto(sort_keys, keys)
        sort_keys.sort()
        boundary = workspace.take("pc_boundary", n_wedges, np.bool_)
        boundary[0] = True
        np.not_equal(sort_keys[1:], sort_keys[:-1], out=boundary[1:])
        run_starts = np.flatnonzero(boundary)
        pair_wedges = np.empty(run_starts.shape[0], dtype=np.int64)
        np.subtract(run_starts[1:], run_starts[:-1], out=pair_wedges[:-1])
        pair_wedges[-1] = n_wedges - run_starts[-1]
        unique_keys = sort_keys[run_starts]

        # Endpoint-side attribution: both pair members gain C(wedges, 2).
        pair_butterflies = pair_wedges * (pair_wedges - 1) // 2
        unique64 = unique_keys.astype(np.int64)
        pair_position = unique64 // n_endpoint
        pair_endpoint = unique64 - pair_position * n_endpoint
        np.add.at(endpoint_counts, pair_endpoint, pair_butterflies)
        np.add.at(endpoint_counts, lo + pair_position, pair_butterflies)

        # Middle-vertex attribution: a wedge's mid pairs with the other
        # (pair wedges - 1) wedges sharing its (start, endpoint) key.
        pair_of_wedge = np.searchsorted(unique_keys, keys)
        contribution = workspace.take("pc_contrib", n_wedges, np.int64)
        np.take(pair_wedges, pair_of_wedge, out=contribution, mode="clip")
        contribution -= 1
        mid_of_wedge = np.repeat(mids[e_lo:e_hi], prefix[e_lo:e_hi])
        np.add.at(mid_counts, mid_of_wedge, contribution)
    return wedges_traversed


def count_per_vertex_priority(
    graph: BipartiteGraph, *, workspace: WedgeWorkspace | None = None
) -> ButterflyCounts:
    """Sequential vertex-priority per-vertex butterfly counting (Alg. 1).

    The implementation enumerates the priority-filtered wedges start-major
    through the shared memory-bounded pipeline; the wedge set, the work
    bound and the resulting counts are identical to Alg. 1, but the grouped
    aggregation vectorises far better in numpy and peak scratch is capped
    by the workspace's wedge budget.
    """
    workspace = workspace_or_default(workspace)
    priority = degree_priority(graph)
    u_counts = np.zeros(graph.n_u, dtype=np.int64)
    v_counts = np.zeros(graph.n_v, dtype=np.int64)

    # Wedges with endpoints in U are centred on V vertices and vice versa.
    wedges = _count_priority_side(
        graph, "V", priority.v_rank, priority.u_rank, u_counts, v_counts, workspace
    )
    wedges += _count_priority_side(
        graph, "U", priority.u_rank, priority.v_rank, v_counts, u_counts, workspace
    )
    return ButterflyCounts(u_counts=u_counts, v_counts=v_counts,
                           wedges_traversed=wedges, algorithm="vertex-priority")


def count_per_vertex(
    graph: BipartiteGraph,
    *,
    algorithm: str = "vertex-priority",
    workspace: WedgeWorkspace | None = None,
) -> ButterflyCounts:
    """Count per-vertex butterflies with the requested algorithm.

    Parameters
    ----------
    graph:
        The bipartite graph.
    algorithm:
        ``"vertex-priority"`` (default, Alg. 1) or ``"wedge"`` (simple wedge
        aggregation, mainly for cross-checking).
    workspace:
        Scratch arena + memory policy shared with the caller's wider run.
    """
    if algorithm == "vertex-priority":
        return count_per_vertex_priority(graph, workspace=workspace)
    if algorithm == "wedge":
        u_counts, wedges_u = count_per_vertex_wedge(graph, "U")
        v_counts, wedges_v = count_per_vertex_wedge(graph, "V")
        return ButterflyCounts(u_counts=u_counts, v_counts=v_counts,
                               wedges_traversed=wedges_u + wedges_v, algorithm="wedge")
    raise ReproError(f"unknown butterfly counting algorithm {algorithm!r}")


def count_total_butterflies(graph: BipartiteGraph) -> int:
    """Total number of butterflies in the graph (``⋈_G`` in Table 2)."""
    return count_per_vertex_priority(graph).total_butterflies
