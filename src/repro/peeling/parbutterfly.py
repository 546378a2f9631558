"""ParButterfly-style parallel bottom-up peeling (the ParB baseline).

ParButterfly (Shi & Shun) parallelises Alg. 2 *within* each peeling
iteration: every round extracts all vertices whose support equals the
current minimum, peels them concurrently (BATCH-aggregated updates) and
synchronises.  The number of rounds ``ρ`` is therefore the number of
distinct support levels encountered, which is what makes the approach
synchronization-bound — the observation motivating RECEIPT.

That round is :func:`~repro.peeling.bup.peel_levels` with a single label,
the loop RECEIPT FD runs inside each subset: every alive vertex at the
minimum support is peeled in one batch whose decrements clamp at that
support.  The paper's implementation finds the minimum with Julienne's
buckets; an array scan finds the same batch.  Updates within a round are
applied through the shared batch-update routine, which is semantically
identical to the atomics-based parallel application (support decrements
commute).
"""

from __future__ import annotations

from ..butterfly.counting import ButterflyCounts, count_per_vertex_priority
from ..graph.bipartite import BipartiteGraph, validate_side
from ..kernels.workspace import WedgeWorkspace
from ..obs.trace import current_tracer
from ..parallel.costmodel import ParallelRegionRecord
from .base import PeelingCounters, TipDecompositionResult
from .bup import peel_levels

__all__ = ["parbutterfly_decomposition"]


def parbutterfly_decomposition(
    graph: BipartiteGraph,
    side: str = "U",
    *,
    counts: ButterflyCounts | None = None,
    workspace: WedgeWorkspace | None = None,
) -> TipDecompositionResult:
    """Tip decomposition with level-synchronous parallel peeling (ParB).

    Parameters
    ----------
    graph:
        The bipartite graph.
    side:
        Side to decompose.
    counts:
        Pre-computed butterfly counts (counted fresh when omitted).
    workspace:
        Scratch arena + memory policy every round's batch peel runs on (a
        fresh default-policy one per run when omitted).

    One ``parb_round`` parallel region per round (its peeled vertices as
    tasks, its wedges as work) is returned in ``extra["parallel_regions"]``
    for the speedup cost model.
    """
    side = validate_side(side)
    counters = PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    tracer = current_tracer()
    run_span = tracer.timed("parb", side=side)

    with run_span:
        with tracer.timed("pvBcnt") as counting_span:
            if counts is None:
                # Counting runs on its own arena, dropped before the peel so
                # its buffers are not held through it.
                counting_workspace = WedgeWorkspace(wedge_budget=workspace.wedge_budget,
                                                    narrow_ids=workspace.narrow_ids)
                counts = count_per_vertex_priority(graph, workspace=counting_workspace)
                workspace.peak_scratch_bytes = max(workspace.peak_scratch_bytes,
                                                   counting_workspace.peak_scratch_bytes)
                del counting_workspace
        counters.wedges_traversed += counts.wedges_traversed
        counters.counting_wedges += counts.wedges_traversed
        if counting_span.recording:
            counting_span.set(wedges_traversed=counts.wedges_traversed)
        initial = counts.counts(side).copy()

        with tracer.span("parb.peel"):
            tip_numbers, counters, rounds = peel_levels(
                graph, side, initial, counters=counters, workspace=workspace,
            )

    counters.elapsed_seconds = run_span.duration
    regions = [ParallelRegionRecord("parb_round", n_peeled, float(wedges))
               for n_peeled, wedges in rounds]
    return TipDecompositionResult(
        tip_numbers=tip_numbers,
        side=side,
        initial_butterflies=initial,
        algorithm="ParB",
        counters=counters,
        extra={"parallel_regions": regions},
    )
