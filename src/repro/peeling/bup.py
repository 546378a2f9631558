"""Bottom-up peeling (BUP, Alg. 2) — the exact baseline — and its level form.

BUP initialises supports with per-vertex butterfly counts and repeatedly
peels a vertex with minimum support, recording that support as its tip
number and decrementing the supports of its 2-hop neighbours.  This is the
algorithm of Sariyuce & Pinar and the sequential baseline of Table 3
(:func:`peel_sequential`, one vertex per heap pop); streaming repair
re-peels its regions with it too.

:func:`peel_levels` is the kernel RECEIPT FD applies to every induced
subgraph.  Every vertex popped while the minimum support is ``s`` gets
θ = ``s``, because decrements clamp at ``s`` (Alg. 4, Lemma 2), so a whole
level is peeled as one :func:`~repro.peeling.update.peel_batch` — ParB's
round, inside one of CD's independent subsets — with the same tip numbers.
"""

from __future__ import annotations

import numpy as np

from ..butterfly.counting import ButterflyCounts, count_per_vertex
from ..errors import BudgetExceededError
from ..graph.bipartite import BipartiteGraph, validate_side
from ..graph.dynamic import PeelableAdjacency
from ..kernels.workspace import WedgeWorkspace
from ..obs.trace import current_tracer
from .base import PeelingCounters, TipDecompositionResult
from .minheap import LazyMinHeap
from .update import peel_batch, peel_vertex

__all__ = ["bup_decomposition", "peel_levels", "peel_sequential"]


def _start_peel(
    graph: BipartiteGraph,
    side: str,
    initial_supports: np.ndarray,
    enable_dgm: bool,
    workspace: WedgeWorkspace,
) -> tuple[np.ndarray, PeelableAdjacency]:
    """A checked, owned copy of the supports and a fresh adjacency view."""
    side = validate_side(side)
    n_side = graph.side_size(side)
    supports = np.array(initial_supports, dtype=np.int64, copy=True)
    if supports.shape[0] != n_side:
        raise ValueError(
            f"initial_supports has {supports.shape[0]} entries, expected {n_side}"
        )
    adjacency = PeelableAdjacency(graph, side, enable_dgm=enable_dgm,
                                  narrow_ids=workspace.narrow_ids)
    return supports, adjacency


def peel_sequential(
    graph: BipartiteGraph,
    side: str,
    initial_supports: np.ndarray,
    *,
    enable_dgm: bool = False,
    counters: PeelingCounters | None = None,
    wedge_budget: int | None = None,
    record_peel_order: bool = False,
    peel_kernel: str = "batched",
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, PeelingCounters, list[int]]:
    """Core sequential peeling loop of BUP and of streaming region re-peels.

    Parameters
    ----------
    graph:
        Graph to peel (for a streaming region, an induced subgraph).
    side:
        Side being peeled.
    initial_supports:
        Supports at the start of peeling (butterfly counts for BUP, the
        repaired supports of a streaming region).
    enable_dgm:
        Whether to compact adjacency lists periodically.
    counters:
        Counter object to accumulate into (a fresh one is created if absent).
    wedge_budget:
        Optional cap on traversed wedges; exceeding it raises
        :class:`~repro.errors.BudgetExceededError` (used to reproduce the
        paper's "did not finish" entries).
    record_peel_order:
        When ``True`` the returned list contains vertices in peel order.
    peel_kernel:
        Support-update kernel: the shared vectorized ``"batched"`` kernel
        (default) or the per-vertex ``"reference"`` formulation.
    workspace:
        Scratch arena shared by every pop of the loop (a fresh one when
        omitted, so per-run peak accounting stays exact); its high-water
        mark is folded into ``counters.peak_scratch_bytes``.

    Returns
    -------
    (tip_numbers, counters, peel_order)
    """
    counters = counters if counters is not None else PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    supports, adjacency = _start_peel(graph, side, initial_supports, enable_dgm, workspace)
    tip_numbers = np.zeros(supports.shape[0], dtype=np.int64)
    heap = LazyMinHeap(supports)
    peel_order: list[int] = []

    while heap:
        vertex, support = heap.pop_min()
        tip_numbers[vertex] = support
        adjacency.mark_peeled(vertex)
        counters.vertices_peeled += 1
        counters.synchronization_rounds += 1
        if record_peel_order:
            peel_order.append(vertex)

        update = peel_vertex(adjacency, supports, vertex, support, kernel=peel_kernel,
                             workspace=workspace)
        counters.wedges_traversed += update.wedges_traversed
        counters.peeling_wedges += update.wedges_traversed
        counters.support_updates += update.support_updates
        heap.decrease_many(update.updated_vertices, update.new_supports)

        compacted = adjacency.maybe_compact()
        if compacted:
            counters.dgm_compactions += 1

        if wedge_budget is not None and counters.wedges_traversed > wedge_budget:
            raise BudgetExceededError(
                f"wedge budget of {wedge_budget} exceeded during sequential peeling",
                wedges_traversed=counters.wedges_traversed,
            )

    counters.peak_scratch_bytes = max(
        counters.peak_scratch_bytes, workspace.peak_scratch_bytes
    )
    return tip_numbers, counters, peel_order


def peel_levels(
    graph: BipartiteGraph,
    side: str,
    initial_supports: np.ndarray,
    *,
    enable_dgm: bool = False,
    counters: PeelingCounters | None = None,
    peel_kernel: str = "batched",
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, PeelingCounters]:
    """Bottom-up peeling one support level at a time (RECEIPT FD's subset peel).

    While alive vertices remain, the minimum support ``s`` is the next
    level: every alive vertex at ``s`` (in id order) gets θ = ``s`` and the
    batch is peeled with ``threshold=s``; the vertices it drove down to
    ``s`` form the next batch of the same level.  Tip numbers equal
    :func:`peel_sequential`'s: both peel exactly the vertices whose support
    reaches ``s`` before any support above it is the minimum, and clamped
    decrements commute.

    ``wedges_traversed`` equals the per-vertex loop's when DGM is off (each
    peeled vertex traverses its full two-hop multiset either way); with DGM
    on, compactions land at other points.  ``support_updates`` counts the
    decrements that change a support, replayed in batch order, so it can
    differ slightly in either direction: for example, a vertex peeled in a
    later batch of a level may find a neighbour already driven to ``s``
    (and peeled beside it), where the per-vertex loop popped it earlier
    and still decremented that neighbour.  Parameters are those of
    :func:`peel_sequential`.

    Returns
    -------
    (tip_numbers, counters)
    """
    counters = counters if counters is not None else PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    supports, adjacency = _start_peel(graph, side, initial_supports, enable_dgm, workspace)
    tip_numbers = np.zeros(supports.shape[0], dtype=np.int64)
    alive = adjacency.alive_mask()
    remaining = np.arange(supports.shape[0], dtype=np.int64)

    while True:
        remaining = remaining[alive[remaining]]
        if remaining.size == 0:
            break
        level = int(supports[remaining].min())
        batch = remaining[supports[remaining] == level]
        while batch.size:
            tip_numbers[batch] = level
            counters.vertices_peeled += int(batch.size)
            counters.synchronization_rounds += 1
            update = peel_batch(adjacency, supports, batch, level, kernel=peel_kernel,
                                workspace=workspace)
            counters.wedges_traversed += update.wedges_traversed
            counters.peeling_wedges += update.wedges_traversed
            counters.support_updates += update.support_updates
            dropped = update.updated_vertices
            batch = np.sort(dropped[supports[dropped] == level])

    counters.dgm_compactions += adjacency.compactions_performed
    counters.peak_scratch_bytes = max(
        counters.peak_scratch_bytes, workspace.peak_scratch_bytes
    )
    return tip_numbers, counters


def bup_decomposition(
    graph: BipartiteGraph,
    side: str = "U",
    *,
    counts: ButterflyCounts | None = None,
    enable_dgm: bool = False,
    wedge_budget: int | None = None,
    peel_kernel: str = "batched",
    workspace: WedgeWorkspace | None = None,
) -> TipDecompositionResult:
    """Tip decomposition by sequential bottom-up peeling (Alg. 2).

    Parameters
    ----------
    graph:
        The bipartite graph.
    side:
        Side to decompose, ``"U"`` by default.
    counts:
        Pre-computed butterfly counts (counted fresh when omitted).
    enable_dgm:
        The classic baseline does not compact adjacency lists; enabling DGM
        here is only used by ablation experiments.
    wedge_budget:
        Optional traversal cap (reproduces the paper's DNF entries).
    peel_kernel:
        Support-update kernel (``"batched"`` or ``"reference"``).
    workspace:
        Scratch arena + memory policy for counting and peeling (a fresh
        default-policy one per run when omitted).
    """
    side = validate_side(side)
    counters = PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    tracer = current_tracer()
    run_span = tracer.timed("bup", side=side)

    with run_span:
        with tracer.timed("pvBcnt") as counting_span:
            if counts is None:
                counts = count_per_vertex(graph, workspace=workspace)
        counters.wedges_traversed += counts.wedges_traversed
        counters.counting_wedges += counts.wedges_traversed
        if counting_span.recording:
            counting_span.set(wedges_traversed=counts.wedges_traversed)
        initial = counts.counts(side).copy()

        with tracer.span("bup.peel"):
            tip_numbers, counters, _ = peel_sequential(
                graph, side, initial,
                enable_dgm=enable_dgm, counters=counters, wedge_budget=wedge_budget,
                peel_kernel=peel_kernel, workspace=workspace,
            )
    counters.elapsed_seconds = run_span.duration
    if run_span.recording:
        run_span.set(wedges_traversed=counters.wedges_traversed,
                     vertices_peeled=counters.vertices_peeled)

    return TipDecompositionResult(
        tip_numbers=tip_numbers,
        side=side,
        initial_butterflies=initial,
        algorithm="BUP",
        counters=counters,
    )
