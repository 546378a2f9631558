"""Batched support-update kernels (the vectorized core of Alg. 2's ``update``).

Peeling a batch of vertices decrements the support of every surviving
2-hop neighbour by the butterflies it shared with the batch, clamped from
below at the range bound being assigned.  The sequential reference applies
these decrements one peeled vertex at a time; the kernels here compute the
identical result — including the exact value of the ``support_updates``
counter — in a handful of array passes:

1. :func:`count_pair_wedges` groups the gathered wedge-endpoint multiset by
   (peeled vertex, endpoint) pair and keeps the pairs that actually carry
   butterflies (``wedges >= 2``) towards alive endpoints.
2. :func:`apply_clamped_decrements` orders the pairs by (endpoint, batch
   position) and replays the sequential clamp semantics with grouped prefix
   sums: a pair counts as a support update exactly when the endpoint's
   support was still above the threshold before that batch member's
   decrement — the same rule the one-vertex-at-a-time loop applies.  The
   threshold is one int, or an int64 array of per-vertex floors (RECEIPT
   FD peels every subset of a worker's share at its own level in one
   batch, see :func:`repro.peeling.bup.peel_levels`).

Both kernels run on a :class:`~repro.kernels.workspace.WedgeWorkspace`:
wedge-scale temporaries (the pair keys, sort scratch and masks) are checked
out of its arena, keys narrow to int32 whenever the key bound permits, and
the outputs handed back to callers are always fresh exactly-sized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import segment_sums
from .workspace import INT32_MAX, WedgeWorkspace, workspace_or_default

__all__ = [
    "BatchDecrements",
    "count_pair_wedges",
    "apply_clamped_decrements",
    "floors_at",
    "key_counts",
]


def floors_at(threshold: int | np.ndarray, vertices: np.ndarray) -> int | np.ndarray:
    """The clamp floor of each of ``vertices``.

    ``threshold`` is either one floor for every vertex (an int) or an
    int64 array of per-vertex floors indexed by vertex id.
    """
    return threshold if np.ndim(threshold) == 0 else threshold[vertices]


@dataclass(frozen=True)
class BatchDecrements:
    """Butterfly decrements of one peel batch, one entry per (vertex, endpoint) pair.

    Attributes
    ----------
    segments:
        Batch position of the peeled vertex of each pair.
    endpoints:
        Surviving endpoint receiving the decrement.
    decrements:
        Shared butterflies ``C(pair wedges, 2)``; always >= 1.
    """

    segments: np.ndarray
    endpoints: np.ndarray
    decrements: np.ndarray

    @classmethod
    def empty(cls) -> "BatchDecrements":
        zero = np.zeros(0, dtype=np.int64)
        return cls(segments=zero, endpoints=zero, decrements=zero)

    @classmethod
    def concatenate(cls, pieces: list["BatchDecrements"]) -> "BatchDecrements":
        if not pieces:
            return cls.empty()
        return cls(
            segments=np.concatenate([piece.segments for piece in pieces]),
            endpoints=np.concatenate([piece.endpoints for piece in pieces]),
            decrements=np.concatenate([piece.decrements for piece in pieces]),
        )


def count_pair_wedges(
    endpoints: np.ndarray,
    segment_values: np.ndarray,
    segment_lengths: np.ndarray,
    batch: np.ndarray,
    alive: np.ndarray,
    *,
    filter_alive: bool = True,
    late_filter: bool = False,
    workspace: WedgeWorkspace | None = None,
) -> BatchDecrements:
    """Group wedge endpoints into per-(peeled vertex, endpoint) decrements.

    Parameters
    ----------
    endpoints:
        Wedge-endpoint multiset gathered for the batch, grouped into
        consecutive segments (stale entries towards peeled vertices are
        tolerated — the alive filter drops them, which is the Lemma 2
        drop-semantics).  May be int32 or int64; typically a view of the
        workspace's gather buffer.
    segment_values:
        Batch position of each segment, ascending (every caller enumerates
        positions as an ``arange`` slice; the pair-recovery pass relies on
        the order).
    segment_lengths:
        Endpoint count of each segment (``sum == endpoints.size``).
    batch:
        The peeled vertex ids (indexed by batch position).
    alive:
        Alive mask over the peeled side; batch members must already be
        marked dead so batch-internal updates are dropped.
    filter_alive:
        Pass ``False`` when the caller guarantees every endpoint is alive
        (the adjacency was compacted after the last deletion, see
        :attr:`~repro.graph.dynamic.PeelableAdjacency.has_stale_entries`);
        the kernel then skips the alive filtering entirely.
    late_filter:
        Where to apply the alive filter.  ``False`` (the classic schedule)
        compresses dead endpoints out of the multiset *before* keying, so
        later passes touch surviving wedges only — right when staleness is
        unbounded (no DGM).  ``True`` defers the filter to the (far
        smaller) pair level, skipping three wedge-scale passes — right when
        DGM keeps the stale fraction small.  Both schedules drop exactly
        the pairs whose endpoint is dead, so results are bit-identical.
    workspace:
        Scratch arena; the calling thread's default when omitted.
    """
    if endpoints.size == 0:
        return BatchDecrements.empty()
    workspace = workspace_or_default(workspace)
    n_side = np.int64(alive.shape[0])
    check_pairs_alive = False
    if filter_alive and not late_filter:
        # Drop dead endpoints first: their pairs would be filtered out
        # afterwards anyway, and compressing before key construction keeps
        # every later pass — including the sort — on surviving wedges only.
        if endpoints.dtype == np.int64:
            index = endpoints
        else:
            # Fancy indexing needs intp; convert once through a reused
            # buffer instead of letting numpy allocate the cast per call.
            index = workspace.take("cpw_index", endpoints.shape[0], np.int64)
            np.copyto(index, endpoints, casting="unsafe")
        live = workspace.take("cpw_live", endpoints.shape[0], np.bool_)
        np.take(alive, index, out=live, mode="clip")
        live_per_segment = segment_sums(
            live, segment_lengths, workspace=workspace, name="cpw_livesum"
        )
        live_total = int(live_per_segment.sum())
        if live_total == 0:
            return BatchDecrements.empty()
        if live_total != endpoints.shape[0]:
            compressed = workspace.take("cpw_eplive", live_total, endpoints.dtype)
            np.compress(live, endpoints, out=compressed)
            endpoints = compressed
    else:
        check_pairs_alive = filter_alive
        live_per_segment = segment_lengths
    segment_values = np.asarray(segment_values, dtype=np.int64)
    if segment_values.shape[0] > 1 and bool(
        np.any(segment_values[1:] < segment_values[:-1])
    ):
        # The pair recovery below reads segment boundaries off the sorted
        # keys, which requires ascending positions; the check is one pass
        # over the (small) segment array, not the wedge multiset.
        raise ValueError("segment_values must be ascending batch positions")
    key_bound = int(n_side) * int(batch.shape[0])
    key_dtype = workspace.ids_dtype(key_bound)
    # One repeat of the pre-scaled positions plus one in-place add builds
    # the keys directly in the narrowed dtype (values are bounded by
    # key_bound, so the unsafe casts cannot wrap).
    keys = np.repeat(
        np.multiply(segment_values, n_side, dtype=key_dtype), live_per_segment
    )
    np.add(keys, endpoints, out=keys, casting="unsafe")
    unique_keys, wedge_counts = key_counts(
        keys, key_bound, owned=True, workspace=workspace
    )
    # Keys are sorted, so segments are non-decreasing: recover them from the
    # segment boundaries with one searchsorted over the (few) batch
    # positions instead of a slow per-pair integer division.  Every caller
    # passes ascending positions (arange slices), so the values double as
    # the ordered segment list.
    ordered_segments = segment_values
    boundaries = np.searchsorted(unique_keys, (ordered_segments + 1) * n_side, side="left")
    pair_counts = np.empty(boundaries.shape[0], dtype=np.int64)
    pair_counts[0] = boundaries[0]
    np.subtract(boundaries[1:], boundaries[:-1], out=pair_counts[1:])
    pair_segments = np.repeat(ordered_segments, pair_counts)
    pair_endpoints = unique_keys - pair_segments * n_side
    keep = wedge_counts >= 2
    if check_pairs_alive:
        # Deferred Lemma 2 filter: batch members (including each pair's own
        # vertex) are already dead, so the alive test subsumes the
        # self-pair exclusion below.
        keep &= alive[pair_endpoints]
    else:
        keep &= pair_endpoints != batch[pair_segments]
    # One index extraction + three takes instead of three boolean fancy
    # passes (each of which re-scans the mask internally).
    selected = np.flatnonzero(keep)
    wedge_counts = np.take(wedge_counts, selected, mode="clip")
    return BatchDecrements(
        segments=np.take(pair_segments, selected, mode="clip"),
        endpoints=np.take(pair_endpoints, selected, mode="clip"),
        decrements=wedge_counts * (wedge_counts - 1) // 2,
    )


def key_counts(
    keys: np.ndarray,
    key_bound: int,
    *,
    owned: bool = False,
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique keys and their multiplicities via a run-length sort.

    Equivalent to ``np.unique(keys, return_counts=True)`` but measurably
    faster on the hot path: the key array is sorted in int32 when the key
    range permits — int32 sorting has twice the throughput of int64 — and
    the run boundaries are read off with one vectorized comparison instead
    of ``np.unique``'s extra passes.

    ``owned`` declares that the caller relinquishes ``keys``: only then may
    the sort run in place on the caller's array.  With ``owned=False``
    (the default) the kernel always sorts a copy — previously a key array
    that was already as narrow as the bound allowed was silently sorted in
    place, corrupting the caller's data.
    """
    if keys.shape[0] == 0:
        zero = np.zeros(0, dtype=np.int64)
        return zero, zero
    workspace = workspace_or_default(workspace)
    if key_bound <= INT32_MAX and keys.dtype != np.int32:
        keys = keys.astype(np.int32)  # narrowing copies, so the copy is owned
    elif not owned:
        keys = keys.copy()
    keys.sort()
    boundary = workspace.take("kc_boundary", keys.shape[0], np.bool_)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.empty(starts.shape[0], dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = keys.shape[0] - starts[-1]
    return keys[starts].astype(np.int64), counts


def apply_clamped_decrements(
    supports: np.ndarray,
    decrements: BatchDecrements,
    threshold: int | np.ndarray,
    *,
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply a batch of clamped support decrements in place.

    Replays, with grouped prefix sums, what the sequential loop does one
    peeled vertex at a time: for each endpoint, decrements arrive in batch
    order and the support is clamped from below at ``threshold`` after
    every step.  Because supports decrease monotonically, the final value
    is ``max(threshold, support - total)`` and a step counts as a support
    update exactly when the pre-step (unclamped) running support is still
    above the threshold.  ``threshold`` is an int or an int64 array of
    per-vertex floors indexed by endpoint id (see :func:`floors_at`).

    Returns ``(updated_vertices, new_supports, support_updates)`` with
    ``updated_vertices`` sorted ascending; ``supports`` is modified in
    place.  Aggregation scratch (the dense accumulator, the per-pair state
    vector and the crossing-replay boundary arrays) lives in the workspace
    arena instead of being rebuilt per call.
    """
    endpoints = decrements.endpoints
    deltas = decrements.decrements
    if endpoints.size == 0:
        zero = np.zeros(0, dtype=np.int64)
        return zero, zero, 0
    workspace = workspace_or_default(workspace)

    n_side = supports.shape[0]
    if endpoints.shape[0] * 32 < n_side:
        # Sparse aggregation: small batches (one vertex of sequential BUP in
        # particular) must not pay O(n_side) zero-fills and scans per call.
        # The crossover leans dense: ``np.unique``'s sort costs far more per
        # pair than the accumulator's linear fill-and-scan costs per vertex.
        touched, compact = np.unique(endpoints, return_inverse=True)
        totals = workspace.take("acd_totals", touched.shape[0], np.int64)
        totals.fill(0)
        np.add.at(totals, compact, deltas)
    else:
        accumulator = workspace.take("acd_accumulator", n_side, np.int64)
        accumulator.fill(0)
        np.add.at(accumulator, endpoints, deltas)
        touched = np.flatnonzero(accumulator)
        totals = accumulator[touched]
        compact = None
    old = supports[touched]
    floors = floors_at(threshold, touched)
    new = np.maximum(floors, old - totals)
    changed = new < old
    updated_vertices = touched[changed]
    new_supports = new[changed]

    # support_updates accounting.  An endpoint that stays above the
    # threshold even after its full decrement counts every one of its pairs
    # (each step strictly decreased the support); an endpoint that starts at
    # or below the threshold counts none.  Only endpoints that *cross* the
    # threshold mid-batch need the sequential replay, and they are rare, so
    # the sort below runs on a small remnant instead of every pair.
    above = old > floors
    crosses = above & (old - totals <= floors)
    if compact is not None:
        state = workspace.take("acd_state", touched.shape[0], np.int8)
        state.fill(0)
        state[above & ~crosses] = 1
        state[crosses] = 2
        pair_state = state[compact]
    else:
        state = workspace.take("acd_state", n_side, np.int8)
        state.fill(0)
        state[touched[above & ~crosses]] = 1
        state[touched[crosses]] = 2
        pair_state = state[endpoints]
    support_updates = int(np.count_nonzero(pair_state == 1))

    if crosses.any():
        selected = pair_state == 2
        cross_endpoints = endpoints[selected]
        cross_deltas = deltas[selected]
        order = np.lexsort((decrements.segments[selected], cross_endpoints))
        cross_endpoints = cross_endpoints[order]
        cross_deltas = cross_deltas[order]

        group_start = workspace.take("acd_group_start", cross_endpoints.shape[0], np.bool_)
        group_start[0] = True
        np.not_equal(cross_endpoints[1:], cross_endpoints[:-1], out=group_start[1:])
        group_of_pair = np.cumsum(group_start) - 1
        exclusive = np.cumsum(cross_deltas) - cross_deltas
        group_base = exclusive[group_start]
        # Running support of the endpoint just before each pair's decrement.
        before = supports[cross_endpoints] - (exclusive - group_base[group_of_pair])
        support_updates += int((before > floors_at(threshold, cross_endpoints)).sum())

    supports[updated_vertices] = new_supports
    return updated_vertices, new_supports, support_updates
