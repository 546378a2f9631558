"""The support-update routine shared by every peeling algorithm.

Peeling a vertex ``u`` (Alg. 2, ``update``) traverses all wedges starting at
``u``, aggregates how many wedges reach each still-alive endpoint ``u'``
(their shared butterflies are ``C(wedges, 2)``) and decreases the support of
``u'`` by that amount, clamped from below at the tip number / range bound
being assigned to ``u``.

Both entry points are backed by the vectorized kernels of
:mod:`repro.kernels`: :func:`peel_batch` streams the wedges of the *whole*
batch through the memory-bounded pipeline — flat-CSR gathers in
wedge-budgeted chunks whose per-(vertex, endpoint) decrements are folded
into ``supports`` as soon as each chunk is counted — so there is no
per-vertex Python loop over batch members *and* peak scratch stays capped
by the workspace's wedge budget instead of the batch's total wedge count.
Chunking is invisible in the results: decrements commute and the clamp
replay preserves batch order, so supports, updated-vertex sets and the
``support_updates`` counter are bit-identical whether a batch is applied in
one piece or many (asserted by the equivalence suites).

Dynamic Graph Maintenance runs between batches: a batch is one
synchronization round, so :func:`peel_batch` checks the compaction
schedule once, after its last chunk (the per-vertex reference does the
same), and the next batch gathers from the compacted adjacency.

The routine is deliberately free of any priority-structure knowledge: the
caller receives the list of updated vertices and their new supports and
feeds its own heap, bucket queue or active-set tracker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.dynamic import PeelableAdjacency
from ..kernels.csr import gather_rows
from ..kernels.peel import apply_clamped_decrements, count_pair_wedges, key_counts
from ..kernels.wedges import gather_batch_wedges, iter_batch_wedge_chunks
from ..kernels.workspace import WedgeWorkspace, workspace_or_default

__all__ = [
    "SupportUpdate",
    "peel_vertex",
    "peel_batch",
]


@dataclass(frozen=True)
class SupportUpdate:
    """Outcome of peeling one vertex or one batch of vertices.

    Attributes
    ----------
    updated_vertices:
        Vertices whose support was decreased (alive vertices only).
    new_supports:
        Their supports after the update (aligned with
        :attr:`updated_vertices`).
    wedges_traversed:
        Wedge endpoints touched, including stale entries left by disabled or
        pending DGM compaction — this is exactly the work the paper counts.
    support_updates:
        Number of support decrements applied.
    """

    updated_vertices: np.ndarray
    new_supports: np.ndarray
    wedges_traversed: int
    support_updates: int


def _empty_update(wedges_traversed: int = 0) -> SupportUpdate:
    return SupportUpdate(
        updated_vertices=np.zeros(0, dtype=np.int64),
        new_supports=np.zeros(0, dtype=np.int64),
        wedges_traversed=wedges_traversed,
        support_updates=0,
    )


def peel_vertex(
    adjacency: PeelableAdjacency,
    supports: np.ndarray,
    vertex: int,
    threshold: int,
    *,
    workspace: WedgeWorkspace | None = None,
) -> SupportUpdate:
    """Peel a single vertex and update supports of its 2-hop neighbours.

    Parameters
    ----------
    adjacency:
        Mutable adjacency view; the vertex must already be marked peeled
        (callers mark first so that self-updates are impossible).
    supports:
        Current supports, modified in place.
    vertex:
        The vertex being peeled.
    threshold:
        Lower clamp for the updated supports: the tip number θ_u in exact
        peeling, or the range lower bound θ(i) in RECEIPT CD.
    workspace:
        Scratch arena the gather and sort temporaries are checked out of;
        sequential peels (BUP, streaming region re-peels) pass one arena
        for the whole run so per-pop allocation churn disappears.
    """
    workspace = workspace_or_default(workspace)
    peel_offsets, peel_neighbors = adjacency.peel_csr()
    center_offsets, center_neighbors = adjacency.center_csr()
    batch = np.asarray([vertex], dtype=np.int64)
    endpoints, _ = gather_batch_wedges(
        peel_offsets, peel_neighbors, center_offsets, center_neighbors, batch,
        workspace=workspace,
    )
    wedges_traversed = int(endpoints.size)
    adjacency.record_traversal(wedges_traversed)
    if wedges_traversed == 0:
        return _empty_update()

    # Single-segment specialisation of the batch kernel: with one peeled
    # vertex the pair keys are the endpoints themselves, so the whole
    # pipeline collapses to one run-length count plus a direct clamped
    # subtraction — the per-call cost sequential BUP pays per pop must stay
    # proportional to the vertex's wedges, not to batch machinery.
    alive = adjacency.alive_mask()
    if endpoints.dtype == np.int64:
        index = endpoints
    else:
        index = workspace.take("pv_index", endpoints.shape[0], np.int64)
        np.copyto(index, endpoints, casting="unsafe")
    endpoints = endpoints[alive[index]]
    if endpoints.size == 0:
        return _empty_update(wedges_traversed)
    unique_endpoints, wedge_counts = key_counts(
        endpoints, supports.shape[0], owned=True, workspace=workspace
    )
    keep = unique_endpoints != vertex
    unique_endpoints = unique_endpoints[keep]
    wedge_counts = wedge_counts[keep]
    shared_butterflies = wedge_counts * (wedge_counts - 1) // 2
    old = supports[unique_endpoints]
    new = np.maximum(int(threshold), old - shared_butterflies)
    changed = new < old
    unique_endpoints = unique_endpoints[changed]
    new = new[changed]
    supports[unique_endpoints] = new
    return SupportUpdate(
        updated_vertices=unique_endpoints,
        new_supports=new,
        wedges_traversed=wedges_traversed,
        support_updates=int(unique_endpoints.shape[0]),
    )


def peel_batch(
    adjacency: PeelableAdjacency,
    supports: np.ndarray,
    vertices: np.ndarray,
    threshold: int | np.ndarray,
    *,
    workspace: WedgeWorkspace | None = None,
) -> SupportUpdate:
    """Peel a set of vertices "concurrently" (one CD / ParB round).

    All vertices are marked peeled *before* any update is computed, so
    updates between members of the batch are dropped — exactly the behaviour
    Lemma 2 relies on (updates to already-assigned vertices have no effect).
    The whole batch flows through the memory-bounded pipeline: the wedge
    multiset is gathered in budget-capped chunks, each chunk's
    per-(vertex, endpoint) decrements are counted and applied to
    ``supports`` immediately, and only the (far smaller) updated-vertex
    sets survive the chunk — peak scratch is bounded by the workspace's
    wedge budget.  Support decrements commute, so the result is identical
    to the per-vertex sequential application and to the atomics-based
    parallel application of the C++ implementation.  With DGM on, the
    adjacency is compacted at most once, after the whole batch.

    Parameters
    ----------
    threshold:
        Lower clamp for the updated supports: one int for every endpoint
        (CD's range bound, ParB's round level), or an int64 array of
        per-vertex floors indexed by endpoint id (RECEIPT FD, where every
        subset of a share peels at its own level).
    workspace:
        Scratch arena + memory policy (wedge budget, int32 narrowing); the
        calling thread's default arena when omitted.
    """
    workspace = workspace_or_default(workspace)
    vertices = np.asarray(vertices, dtype=np.int64)
    adjacency.mark_peeled_many(vertices)
    peel_offsets, peel_neighbors = adjacency.peel_csr()
    threshold = (int(threshold) if np.ndim(threshold) == 0
                 else np.asarray(threshold, dtype=np.int64))
    centers, centers_per_vertex = gather_rows(peel_offsets, peel_neighbors, vertices)
    center_offsets, center_neighbors = adjacency.center_csr()
    alive = adjacency.alive_mask()

    # Every chunk's decrements are applied before the next chunk is
    # gathered, so nothing wedge-scale outlives a chunk.  The chunks follow
    # batch order and clamped decrements compose (``max(t, s - a - b) ==
    # max(t, max(t, s - a) - b)`` for per-endpoint totals ``a`` before
    # ``b``), so supports and the ``support_updates`` replay are
    # bit-identical to a monolithic application.
    wedges = 0
    support_updates = 0
    updated_pieces: list[np.ndarray] = []
    for lo, hi, endpoints, chunk_wedges in iter_batch_wedge_chunks(
        centers, centers_per_vertex, center_offsets, center_neighbors,
        workspace=workspace,
    ):
        wedges += int(endpoints.shape[0])
        # Positions are rebased to the chunk so the key bound — and with it
        # the int32 narrowing decision — shrinks with the chunk; the cached
        # iota serves them without an arange per chunk.
        positions = workspace.iota(hi - lo)
        decrements = count_pair_wedges(
            endpoints, positions, chunk_wedges, vertices[lo:hi], alive,
            # DGM bounds the stale fraction, so deferring the alive filter to
            # the pair level is the cheaper schedule; without DGM stale
            # entries accumulate and the early compress stays worthwhile.
            late_filter=adjacency.enable_dgm, workspace=workspace,
        )
        updated, _, n_updates = apply_clamped_decrements(
            supports, decrements, threshold, workspace=workspace
        )
        support_updates += n_updates
        if updated.size:
            updated_pieces.append(updated)
    adjacency.record_traversal(wedges)
    adjacency.maybe_compact()

    if updated_pieces:
        updated_vertices = (
            updated_pieces[0]
            if len(updated_pieces) == 1
            else np.unique(np.concatenate(updated_pieces))
        )
        new_supports = supports[updated_vertices]
    else:
        updated_vertices = np.zeros(0, dtype=np.int64)
        new_supports = np.zeros(0, dtype=np.int64)
    return SupportUpdate(
        updated_vertices=updated_vertices,
        new_supports=new_supports,
        wedges_traversed=wedges,
        support_updates=support_updates,
    )
