"""Per-vertex butterfly counting (Alg. 1 of the paper).

The production kernel is the *vertex-priority* algorithm of Chiba &
Nishizeki as refined by Wang et al.: vertices are ranked by decreasing
degree and a wedge ``sp - mp - ep`` is traversed only from the start vertex
``sp`` when the end point ``ep`` outranks both ``sp`` and ``mp``.  This
bounds traversal by ``O(sum_{(u,v) in E} min(d_u, d_v)) = O(alpha * m)``
wedges while still attributing every butterfly to all four of its vertices.

The enumeration is *start-major* and needs no binary search per edge or
per wedge.  A rank-sorted adjacency index is built once per side
(:func:`_build_ranked_index`) by one argsort of distinct ``(mid, rank of
start)`` edge keys; its inverse places every ``(start, mid)`` edge in its
mid's row, which gives the edge's rank-filtered wedge prefix with one
search per middle vertex.  The wedges are then gathered and aggregated
start-by-start in wedge-budgeted chunks: each wedge becomes one packed
``(start, endpoint, mid)`` key, and one sort groups the chunk's wedges by
``(start, endpoint)`` pair with their middle vertices carried along.
Because every wedge of a ``(start, endpoint)`` pair is enumerated under
its start vertex, chunking over starts folds partial ``C(wedges, 2)``
results into the running per-vertex counts *exactly* — peak scratch is
bounded by the workspace's wedge budget while counts and the
wedge-traversal counter stay bit-identical to the monolithic enumeration
(the wedge set is precisely the one Alg. 1 visits).

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
    """Rank-sorted flat CSR of one (middle) side plus every start edge's prefix.

    Row ``mid`` of ``entries`` lists the middle vertex's endpoint-side
    neighbours by increasing endpoint rank, each packed as ``endpoint <<
    mid_bits | mid``, so one gather yields a wedge's endpoint and middle
    vertex together.  For the ``e``-th entry ``(start, mid)`` of the start
    side's CSR, the wedges ``start - mid - ep`` with ``rank(ep) <
    min(rank(start), rank(mid))`` are the ``prefix[e]`` entries from
    ``row_starts[e] = offsets[mid]`` on.  The packing needs ``n_endpoint <<
    mid_bits`` to fit in int64, which holds while each side has fewer than
    2**31 vertices.
    """

    offsets: np.ndarray
    entries: np.ndarray
    mid_bits: int
    row_starts: np.ndarray
    prefix: np.ndarray


def _build_ranked_index(
    graph: BipartiteGraph,
    mid_side: str,
    mid_ranks: np.ndarray,
    endpoint_ranks: np.ndarray,
) -> _RankedWedgeIndex:
    offsets, _ = graph.csr(mid_side)
    start_offsets, mids = graph.csr("U" if mid_side == "V" else "V")
    n_mid = offsets.shape[0] - 1
    mid_bits = max(n_mid - 1, 0).bit_length()
    starts_per_row = np.diff(start_offsets)
    # Every edge keyed (mid, rank of its start).  Ranks are a permutation
    # of U ∪ V, so the keys are distinct: one unstable argsort orders each
    # mid row by rank, and its inverse is every start-side edge's position.
    rank_bound = np.int64(graph.n_u + graph.n_v + 1)
    entry_keys = mids * rank_bound + np.repeat(endpoint_ranks, starts_per_row)
    order = np.argsort(entry_keys)
    entry_keys = entry_keys[order]
    position = np.empty(order.shape[0], dtype=np.int64)
    position[order] = np.arange(order.shape[0], dtype=np.int64)
    entries = np.repeat(
        np.arange(starts_per_row.shape[0], dtype=np.int64) << mid_bits, starts_per_row
    )
    entries |= mids
    # Neighbours of a mid ranked below a cutoff are a prefix of its row that
    # grows with the cutoff, so the prefix below min(rank(start),
    # rank(mid)) is the smaller of start's own position in the row and the
    # count below mid (one search per middle vertex, not per edge).
    below_mid = np.searchsorted(
        entry_keys, np.arange(n_mid, dtype=np.int64) * rank_bound + mid_ranks
    ) - offsets[:-1]
    row_starts = offsets[mids]
    position -= row_starts
    return _RankedWedgeIndex(
        offsets=offsets,
        entries=entries[order],
        mid_bits=mid_bits,
        row_starts=row_starts,
        prefix=np.minimum(position, below_mid[mids], out=position),
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
    entry_offsets, mids = graph.csr(start_side)
    if mids.size == 0:
        return 0
    index = _build_ranked_index(graph, mid_side, mid_ranks, endpoint_ranks)
    wedges_per_start = segment_sums(index.prefix, np.diff(entry_offsets))

    n_endpoint = np.int64(endpoint_counts.shape[0])
    mid_bits = index.mid_bits
    # A wedge's key is (start in span, endpoint, mid) packed into one int64:
    # sorting it groups the wedges by pair and carries each mid along.
    start_stride = n_endpoint << mid_bits
    max_starts = max(int(np.iinfo(np.int64).max // int(start_stride)), 1)
    wedges_traversed = 0
    for lo, hi in budget_spans(wedges_per_start, workspace.wedge_budget, max_items=max_starts):
        e_lo, e_hi = int(entry_offsets[lo]), int(entry_offsets[hi])
        gathered = gather_ranges(
            index.entries, index.row_starts[e_lo:e_hi], index.prefix[e_lo:e_hi],
            workspace=workspace, name="pc_ep",
        )
        n_wedges = int(gathered.shape[0])
        if n_wedges == 0:
            continue
        wedges_traversed += n_wedges

        keys = np.repeat(np.arange(hi - lo, dtype=np.int64) * start_stride, wedges_per_start[lo:hi])
        keys += gathered
        keys.sort()
        pairs = workspace.take("pc_pairs", n_wedges, np.int64)
        np.right_shift(keys, mid_bits, out=pairs)
        boundary = workspace.take("pc_boundary", n_wedges, np.bool_)
        boundary[0] = True
        np.not_equal(pairs[1:], pairs[:-1], out=boundary[1:])
        run_starts = np.flatnonzero(boundary)
        pair_wedges = np.empty(run_starts.shape[0], dtype=np.int64)
        np.subtract(run_starts[1:], run_starts[:-1], out=pair_wedges[:-1])
        pair_wedges[-1] = n_wedges - run_starts[-1]

        # Endpoint-side attribution: both members of a repeated pair gain
        # C(wedges, 2).
        repeated = pair_wedges > 1
        shared = pair_wedges[repeated]
        pair_butterflies = shared * (shared - 1) // 2
        repeated_pairs = pairs[run_starts[repeated]]
        pair_position = repeated_pairs // n_endpoint
        np.add.at(endpoint_counts, repeated_pairs - pair_position * n_endpoint, pair_butterflies)
        np.add.at(endpoint_counts, lo + pair_position, pair_butterflies)

        # Middle-vertex attribution: a wedge's mid pairs with the other
        # (pair wedges - 1) wedges of its run.
        np.bitwise_and(keys, (1 << mid_bits) - 1, out=keys)
        np.add.at(mid_counts, keys, np.repeat(pair_wedges - 1, pair_wedges))
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
