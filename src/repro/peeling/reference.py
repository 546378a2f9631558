"""Per-vertex reference implementation of the support-update routine.

This is the original one-vertex-at-a-time formulation of Alg. 2's
``update``: a batch is dismantled into a Python loop that peels each member
individually, aggregates its wedge endpoints with ``np.unique`` and applies
the clamped decrements before moving to the next member.  The vectorized
kernels in :mod:`repro.kernels` replaced it as the default because the
per-vertex loop made interpreter overhead — not wedge traversal — the
dominant cost of RECEIPT CD's huge batches.

It is kept in-tree for three reasons:

* the property-based equivalence suite asserts the batched kernel matches
  it bit-for-bit (supports, ``wedges_traversed`` and ``support_updates``);
* ``--peel-kernel reference`` on the CLI and the ``peel_kernel`` plumbing
  in :mod:`repro.core` let ablation benchmarks compare both paths without
  code edits; and
* it documents the sequential semantics (per-step threshold clamping,
  Lemma 2 drop-semantics, per-vertex DGM checks) the kernels must honour.
"""

from __future__ import annotations

import numpy as np

from ..graph.dynamic import PeelableAdjacency
from ..kernels.peel import floors_at
from .update import SupportUpdate

__all__ = ["peel_vertex_reference", "peel_batch_reference"]


def peel_vertex_reference(
    adjacency: PeelableAdjacency,
    supports: np.ndarray,
    vertex: int,
    threshold: int | np.ndarray,
) -> SupportUpdate:
    """Peel a single vertex and update supports of its 2-hop neighbours.

    The vertex must already be marked peeled (callers mark first so that
    self-updates are impossible); ``supports`` is modified in place and
    clamped from below at ``threshold``: one int, or an int64 array of
    per-vertex floors indexed by endpoint id.
    """
    endpoints = adjacency.two_hop_multiset(vertex)
    wedges_traversed = int(endpoints.size)
    adjacency.record_traversal(wedges_traversed)
    if wedges_traversed == 0:
        return SupportUpdate(
            updated_vertices=np.zeros(0, dtype=np.int64),
            new_supports=np.zeros(0, dtype=np.int64),
            wedges_traversed=0,
            support_updates=0,
        )

    unique_endpoints, wedge_counts = np.unique(endpoints, return_counts=True)
    alive = adjacency.alive_mask()
    keep = alive[unique_endpoints] & (unique_endpoints != vertex) & (wedge_counts >= 2)
    unique_endpoints = unique_endpoints[keep]
    wedge_counts = wedge_counts[keep]
    if unique_endpoints.size == 0:
        return SupportUpdate(
            updated_vertices=np.zeros(0, dtype=np.int64),
            new_supports=np.zeros(0, dtype=np.int64),
            wedges_traversed=wedges_traversed,
            support_updates=0,
        )

    shared_butterflies = wedge_counts * (wedge_counts - 1) // 2
    new_supports = np.maximum(floors_at(threshold, unique_endpoints),
                              supports[unique_endpoints] - shared_butterflies)
    changed = new_supports < supports[unique_endpoints]
    unique_endpoints = unique_endpoints[changed]
    new_supports = new_supports[changed]
    supports[unique_endpoints] = new_supports

    return SupportUpdate(
        updated_vertices=unique_endpoints.astype(np.int64),
        new_supports=new_supports.astype(np.int64),
        wedges_traversed=wedges_traversed,
        support_updates=int(unique_endpoints.size),
    )


def peel_batch_reference(
    adjacency: PeelableAdjacency,
    supports: np.ndarray,
    vertices: np.ndarray,
    threshold: int | np.ndarray,
) -> SupportUpdate:
    """Peel a set of vertices by looping :func:`peel_vertex_reference`.

    All vertices are marked peeled *before* any update is computed, so
    updates between members of the batch are dropped — exactly the behaviour
    Lemma 2 relies on.  DGM compaction is checked after every member, which
    is the schedule the batched kernel reproduces by splitting batches at
    compaction points.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    adjacency.mark_peeled_many(vertices)

    total_wedges = 0
    total_updates = 0
    touched: dict[int, int] = {}
    for vertex in vertices:
        update = peel_vertex_reference(adjacency, supports, int(vertex), threshold)
        total_wedges += update.wedges_traversed
        total_updates += update.support_updates
        for updated_vertex, new_support in zip(update.updated_vertices, update.new_supports):
            touched[int(updated_vertex)] = int(new_support)
        adjacency.maybe_compact()

    if touched:
        updated_vertices = np.fromiter(touched.keys(), dtype=np.int64, count=len(touched))
        new_supports = np.fromiter(touched.values(), dtype=np.int64, count=len(touched))
    else:
        updated_vertices = np.zeros(0, dtype=np.int64)
        new_supports = np.zeros(0, dtype=np.int64)
    return SupportUpdate(
        updated_vertices=updated_vertices,
        new_supports=new_supports,
        wedges_traversed=total_wedges,
        support_updates=total_updates,
    )
