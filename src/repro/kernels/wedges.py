"""Vectorized wedge enumeration over flat-CSR adjacencies.

*Batch two-hop gathering*: for a set of peeled-side vertices, the multiset
of wedge endpoints reachable through their center neighbours (what
``peel_batch`` aggregates, Alg. 2's ``update``), monolithic or streamed in
wedge-budgeted chunks.  Vertex-priority counting (Alg. 1) enumerates its
rank-filtered wedges through its own ranked index in
:mod:`repro.butterfly.counting`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .csr import gather_ranges, gather_rows, segment_offsets, segment_sums
from .workspace import WedgeWorkspace, budget_spans, workspace_or_default

__all__ = ["gather_batch_wedges", "iter_batch_wedge_chunks"]


def gather_batch_wedges(
    peel_offsets: np.ndarray,
    peel_neighbors: np.ndarray,
    center_offsets: np.ndarray,
    center_neighbors: np.ndarray,
    batch: np.ndarray,
    *,
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the two-hop endpoint multiset of every batch vertex at once.

    Parameters
    ----------
    peel_offsets, peel_neighbors:
        Static CSR of the peeled side (vertex -> center neighbours).
    center_offsets, center_neighbors:
        Current (possibly compacted) CSR of the center side
        (center -> peeled-side neighbours).
    batch:
        Peeled-side vertex ids.
    workspace:
        Scratch arena the gathered multiset is checked out of (the
        endpoint array is a view of its ``wedge_ep`` buffer, valid until
        the next gather); plain allocations when omitted.

    Returns
    -------
    endpoints:
        Concatenated wedge endpoints, grouped by batch vertex; its length is
        exactly the number of wedge endpoints traversed (the paper's work
        unit, stale entries included).
    endpoints_per_vertex:
        Segment lengths: ``endpoints_per_vertex[i]`` endpoints belong to
        ``batch[i]`` (expand with :func:`~repro.kernels.csr.segment_ids`
        when per-entry owner ids are needed).

    This is the *monolithic* gather; memory-bounded callers iterate
    :func:`iter_batch_wedge_chunks` instead so peak scratch is capped by
    the workspace's wedge budget.
    """
    centers, centers_per_vertex = gather_rows(peel_offsets, peel_neighbors, batch)
    endpoints, endpoints_per_center = gather_rows(
        center_offsets, center_neighbors, centers, workspace=workspace, name="wedge_ep"
    )
    return endpoints, segment_sums(
        endpoints_per_center, centers_per_vertex, workspace=workspace, name="wedge_epsum"
    )


def iter_batch_wedge_chunks(
    centers: np.ndarray,
    centers_per_vertex: np.ndarray,
    center_offsets: np.ndarray,
    center_neighbors: np.ndarray,
    *,
    workspace: WedgeWorkspace | None = None,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Stream a batch's two-hop gather in wedge-budgeted chunks.

    The batch is described by its pre-gathered center multiset (``centers``
    grouped by ``centers_per_vertex``; the peeled-side CSR is static, so a
    caller gathers it once).  Yields ``(lo, hi, endpoints,
    wedges_per_vertex[lo:hi])`` spans of batch positions whose total wedge
    endpoints respect the workspace's
    :attr:`~repro.kernels.workspace.WedgeWorkspace.wedge_budget` (a single
    vertex is never split, so the effective cap is the larger of the budget
    and the heaviest vertex).  ``endpoints`` is a view of the workspace's
    gather buffer and must be consumed before the next iteration; partial
    results are meant to be folded into running accumulators, which is what
    keeps peak scratch proportional to the budget instead of the batch's
    total wedge count.
    """
    workspace = workspace_or_default(workspace)
    center_starts = segment_offsets(centers_per_vertex)
    range_starts = center_offsets[centers]
    range_lengths = center_offsets[centers + 1] - range_starts
    wedges_per_vertex = segment_sums(
        range_lengths, centers_per_vertex, workspace=workspace, name="ibwc_wpv"
    )
    for lo, hi in budget_spans(wedges_per_vertex, workspace.wedge_budget):
        c_lo, c_hi = int(center_starts[lo]), int(center_starts[hi])
        endpoints = gather_ranges(
            center_neighbors,
            range_starts[c_lo:c_hi],
            range_lengths[c_lo:c_hi],
            workspace=workspace,
            name="wedge_ep",
        )
        yield lo, hi, endpoints, wedges_per_vertex[lo:hi]
