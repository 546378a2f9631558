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

The only other Python-level iteration left is over DGM compaction events:
when Dynamic Graph Maintenance is enabled the batch is split at the exact
vertices where the sequential reference would have compacted, so wedge
traversal counters stay bit-identical to :mod:`repro.peeling.reference`.

The routine is deliberately free of any priority-structure knowledge: the
caller receives the list of updated vertices and their new supports and
feeds its own heap, bucket queue or active-set tracker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.dynamic import PeelableAdjacency
from ..kernels.csr import gather_rows, segment_offsets, segment_sums
from ..kernels.peel import (
    BatchDecrements,
    apply_clamped_decrements,
    count_pair_wedges,
    key_counts,
)
from ..kernels.wedges import gather_batch_wedges, iter_batch_wedge_chunks
from ..kernels.workspace import WedgeWorkspace, workspace_or_default

__all__ = [
    "SupportUpdate",
    "peel_vertex",
    "peel_batch",
    "PEEL_KERNELS",
]

#: Valid values of the ``kernel`` argument of :func:`peel_batch` /
#: :func:`peel_vertex` (and of the CLI's ``--peel-kernel`` option).
PEEL_KERNELS = ("batched", "reference")


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


def _validate_kernel(kernel: str) -> str:
    if kernel not in PEEL_KERNELS:
        raise ValueError(f"unknown peel kernel {kernel!r}; expected one of {PEEL_KERNELS}")
    return kernel


def peel_vertex(
    adjacency: PeelableAdjacency,
    supports: np.ndarray,
    vertex: int,
    threshold: int,
    *,
    kernel: str = "batched",
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
    kernel:
        ``"batched"`` (default) runs the shared vectorized kernel;
        ``"reference"`` dispatches to the per-vertex reference formulation.
    workspace:
        Scratch arena the gather and sort temporaries are checked out of;
        sequential peels (BUP, streaming region re-peels) pass one arena
        for the whole run so per-pop allocation churn disappears.
    """
    if _validate_kernel(kernel) == "reference":
        from .reference import peel_vertex_reference

        return peel_vertex_reference(adjacency, supports, vertex, threshold)

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
    keep = (wedge_counts >= 2) & (unique_endpoints != vertex)
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
    kernel: str = "batched",
    context=None,
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
    parallel application of the C++ implementation.

    Parameters
    ----------
    threshold:
        Lower clamp for the updated supports: one int for every endpoint
        (CD's range bound, ParB's round level), or an int64 array of
        per-vertex floors indexed by endpoint id (RECEIPT FD, where every
        subset of a share peels at its own level).
    kernel:
        ``"batched"`` (default) or ``"reference"`` (the per-vertex loop kept
        in :mod:`repro.peeling.reference` for ablations and equivalence
        tests).
    context:
        Optional :class:`~repro.parallel.threadpool.ExecutionContext`.  When
        it carries more than one thread, the wedge gather and pair counting
        fan out over work-balanced batch slices with private buffers
        (``map_chunks``) and the kernel merges the slices before the single
        decrement application; results are identical to the serial path.
    workspace:
        Scratch arena + memory policy (wedge budget, int32 narrowing); the
        calling thread's default arena when omitted.
    """
    if _validate_kernel(kernel) == "reference":
        from .reference import peel_batch_reference

        return peel_batch_reference(adjacency, supports, vertices, threshold)

    workspace = workspace_or_default(workspace)
    vertices = np.asarray(vertices, dtype=np.int64)
    adjacency.mark_peeled_many(vertices)
    if vertices.size == 0:
        return _empty_update()

    peel_offsets, peel_neighbors = adjacency.peel_csr()
    threshold = (int(threshold) if np.ndim(threshold) == 0
                 else np.asarray(threshold, dtype=np.int64))
    total_wedges = 0
    total_updates = 0
    updated_pieces: list[np.ndarray] = []

    # The batch's center ids never change (the peeled-side CSR is static), so
    # they are gathered exactly once; only the per-center sizes depend on the
    # current (possibly compacted) center CSR.
    n_batch = vertices.shape[0]
    centers, centers_per_vertex = gather_rows(peel_offsets, peel_neighbors, vertices)
    center_starts = segment_offsets(centers_per_vertex)

    # Outer loop over DGM compaction events only (a single pass when DGM is
    # off or the interval is not reached): the sequential reference checks
    # for compaction after every vertex, so the batch is split at the first
    # vertex whose cumulative traversal crosses the remaining budget.
    start = 0
    while start < n_batch:
        center_offsets, center_neighbors = adjacency.center_csr()
        budget = adjacency.wedges_until_compaction()
        stop, wedges_per_vertex, range_starts, range_lengths = _find_compaction_split(
            start, n_batch, budget, centers, center_starts, centers_per_vertex,
            center_offsets, need_weights=context is not None and context.n_threads > 1,
        )

        sub_batch = vertices[start:stop]
        sub_wedges, sub_updates, sub_updated = _stream_decrements(
            sub_batch,
            centers[center_starts[start]: center_starts[stop]],
            centers_per_vertex[start:stop],
            center_offsets,
            center_neighbors,
            adjacency.alive_mask(),
            adjacency.has_stale_entries,
            # DGM bounds the stale fraction, so deferring the alive filter
            # to the pair level is the cheaper schedule; without DGM stale
            # entries accumulate and the early compress stays worthwhile.
            adjacency.enable_dgm,
            supports,
            threshold,
            wedges_per_vertex,
            range_starts,
            range_lengths,
            context,
            workspace,
        )

        total_wedges += sub_wedges
        total_updates += sub_updates
        updated_pieces.extend(sub_updated)
        adjacency.record_traversal(sub_wedges)
        adjacency.maybe_compact()
        start = stop

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
        wedges_traversed=total_wedges,
        support_updates=total_updates,
    )


def _find_compaction_split(
    start: int,
    n_batch: int,
    budget: int | None,
    centers: np.ndarray,
    center_starts: np.ndarray,
    centers_per_vertex: np.ndarray,
    center_offsets: np.ndarray,
    *,
    need_weights: bool,
) -> tuple[int, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Find where the remaining batch must split for the next DGM compaction.

    Returns ``(stop, wedges_per_vertex, range_starts, range_lengths)`` such
    that processing ``vertices[start:stop]`` traverses wedges exactly until
    the sequential reference would compact (after the first vertex whose
    cumulative count reaches ``budget``).  The candidate window grows
    geometrically so a batch that splits many times never re-scans its
    whole tail per split.  ``wedges_per_vertex`` covers ``[start, stop)``
    and ``range_starts`` / ``range_lengths`` are the per-center gather
    ranges of the same span, handed back so the endpoint gather does not
    recompute them; all three are ``None`` when nothing was computed (no
    DGM and no work weights requested).
    """
    if budget is None and not need_weights:
        return n_batch, None, None, None

    window = 128 if budget is not None else n_batch - start
    while True:
        hi = min(start + window, n_batch)
        window_centers = centers[center_starts[start]: center_starts[hi]]
        range_starts = center_offsets[window_centers]
        range_lengths = center_offsets[window_centers + 1] - range_starts
        wedges_per_vertex = segment_sums(range_lengths, centers_per_vertex[start:hi])
        if budget is not None:
            cumulative = np.cumsum(wedges_per_vertex)
            crossing = int(np.searchsorted(cumulative, budget, side="left"))
            if crossing < hi - start:
                stop = start + crossing + 1
                n_sub_centers = int(center_starts[stop] - center_starts[start])
                return (
                    stop,
                    wedges_per_vertex[: crossing + 1],
                    range_starts[:n_sub_centers],
                    range_lengths[:n_sub_centers],
                )
        if hi == n_batch:
            return n_batch, wedges_per_vertex, range_starts, range_lengths
        window *= 4


def _stream_decrements(
    sub_batch: np.ndarray,
    centers: np.ndarray,
    centers_per_vertex: np.ndarray,
    center_offsets: np.ndarray,
    center_neighbors: np.ndarray,
    alive: np.ndarray,
    filter_alive: bool,
    late_filter: bool,
    supports: np.ndarray,
    threshold: int | np.ndarray,
    wedges_per_vertex: np.ndarray | None,
    range_starts: np.ndarray | None,
    range_lengths: np.ndarray | None,
    context,
    workspace: WedgeWorkspace,
) -> tuple[int, int, list[np.ndarray]]:
    """Gather, count and apply one DGM sub-batch through the wedge pipeline.

    Serial path: the sub-batch streams through
    :func:`~repro.kernels.wedges.iter_batch_wedge_chunks`; every chunk's
    decrements are applied to ``supports`` before the next chunk is
    gathered, so nothing wedge-scale outlives a chunk.  Because the chunks
    follow batch order and clamped decrements compose (``max(t, s - a - b)
    == max(t, max(t, s - a) - b)`` for per-endpoint totals ``a`` before
    ``b``), supports and the ``support_updates`` replay are bit-identical
    to a monolithic application.

    With a multi-threaded execution context the batch positions are split
    into work-balanced slices instead; each slice gathers and counts into
    private arrays (batch positions are disjoint across slices, so
    per-pair counts are unaffected) and the pieces are concatenated for a
    single global decrement application.

    Returns ``(wedges, support_updates, updated_vertex_pieces)``.
    """
    if context is not None and context.n_threads > 1 and sub_batch.shape[0] > 1:
        center_starts = np.concatenate(([0], np.cumsum(centers_per_vertex)))

        def chunk_body(positions):
            positions = np.asarray(positions, dtype=np.int64)
            # Slices are contiguous position ranges (balanced_chunks /
            # chunk_ranges both tile [0, n)); the streaming iteration below
            # relies on it, so fail loudly if the scheduler ever changes.
            lo_pos, hi_pos = int(positions[0]), int(positions[-1]) + 1
            if hi_pos - lo_pos != positions.shape[0]:
                raise ValueError("peel_batch_gather requires contiguous slices")
            # A private arena per slice carrying the run's memory policy:
            # the wedge budget caps each slice's gathers and its peak folds
            # back into the run's accounting after the barrier.
            local = WedgeWorkspace(
                wedge_budget=workspace.wedge_budget,
                narrow_ids=workspace.narrow_ids,
            )
            pieces: list[BatchDecrements] = []
            slice_wedges = 0
            for lo, hi, endpoints, chunk_lengths in iter_batch_wedge_chunks(
                centers[center_starts[lo_pos]: center_starts[hi_pos]],
                centers_per_vertex[lo_pos:hi_pos],
                center_offsets,
                center_neighbors,
                workspace=local,
            ):
                slice_wedges += int(endpoints.shape[0])
                pieces.append(count_pair_wedges(
                    endpoints,
                    np.arange(lo_pos + lo, lo_pos + hi, dtype=np.int64),
                    chunk_lengths, sub_batch, alive,
                    filter_alive=filter_alive, late_filter=late_filter,
                    workspace=local,
                ))
            return pieces, slice_wedges, local.peak_scratch_bytes

        # record=False: the enclosing peel iteration (cd_peel_iteration /
        # parb_round) already accounts for this wedge work, and the recorded
        # regions must not depend on the thread count.
        results = context.map_chunks(
            list(range(sub_batch.shape[0])),
            chunk_body,
            name="peel_batch_gather",
            work_per_item=[float(w) for w in wedges_per_vertex],
            record=False,
        )
        decrements = BatchDecrements.concatenate(
            [piece for pieces, _, _ in results for piece in pieces]
        )
        wedges = sum(slice_wedges for _, slice_wedges, _ in results)
        for _, _, local_peak in results:
            if local_peak > workspace.peak_scratch_bytes:
                workspace.peak_scratch_bytes = local_peak
        updated, _, n_updates = apply_clamped_decrements(
            supports, decrements, threshold, workspace=workspace
        )
        return wedges, n_updates, [updated] if updated.size else []

    wedges = 0
    total_updates = 0
    updated_pieces: list[np.ndarray] = []
    for lo, hi, endpoints, chunk_wedges in iter_batch_wedge_chunks(
        centers,
        centers_per_vertex,
        center_offsets,
        center_neighbors,
        workspace=workspace,
        range_starts=range_starts,
        range_lengths=range_lengths,
        wedges_per_vertex=wedges_per_vertex,
    ):
        wedges += int(endpoints.shape[0])
        # Positions are rebased to the chunk so the key bound — and with it
        # the int32 narrowing decision — shrinks with the chunk; the cached
        # iota serves them without an arange per chunk.
        positions = workspace.iota(hi - lo)
        decrements = count_pair_wedges(
            endpoints, positions, chunk_wedges, sub_batch[lo:hi], alive,
            filter_alive=filter_alive, late_filter=late_filter, workspace=workspace,
        )
        updated, _, n_updates = apply_clamped_decrements(
            supports, decrements, threshold, workspace=workspace
        )
        total_updates += n_updates
        if updated.size:
            updated_pieces.append(updated)
    return wedges, total_updates, updated_pieces
