"""ParButterfly-style parallel bottom-up peeling (the ParB baseline).

ParButterfly (Shi & Shun) parallelises Alg. 2 *within* each peeling
iteration: every round extracts all vertices whose support equals the
current minimum, peels them concurrently (BATCH-aggregated updates) and
synchronises.  The number of rounds ``ρ`` is therefore the number of
distinct support levels encountered, which is what makes the approach
synchronization-bound — the observation motivating RECEIPT.

The paper re-implemented ParB on the Julienne bucketing structure with 128
buckets; this module does the same.  Updates within a round are applied
through the shared batch-update routine, which is semantically identical to
the atomics-based parallel application (support decrements commute).
"""

from __future__ import annotations

import numpy as np

from ..butterfly.counting import ButterflyCounts, count_per_vertex_priority
from ..errors import BudgetExceededError
from ..graph.bipartite import BipartiteGraph, validate_side
from ..graph.dynamic import PeelableAdjacency
from ..kernels.workspace import WedgeWorkspace
from ..obs.trace import current_tracer
from ..parallel.costmodel import ParallelRegionRecord
from .base import PeelingCounters, TipDecompositionResult
from .bucketing import BucketQueue
from .update import peel_batch

__all__ = ["parbutterfly_decomposition"]


def parbutterfly_decomposition(
    graph: BipartiteGraph,
    side: str = "U",
    *,
    counts: ButterflyCounts | None = None,
    n_buckets: int = 128,
    wedge_budget: int | None = None,
    round_budget: int | None = None,
    peel_kernel: str = "batched",
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
    n_buckets:
        Number of open Julienne buckets (128 as in the paper's baseline).
    wedge_budget, round_budget:
        Optional execution caps used by the benchmark harness to reproduce
        the paper's "did not finish" / out-of-memory entries.
    peel_kernel:
        Support-update kernel (``"batched"`` or ``"reference"``).
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

        n_side = graph.side_size(side)
        supports = initial.copy()
        tip_numbers = np.zeros(n_side, dtype=np.int64)
        adjacency = PeelableAdjacency(graph, side, enable_dgm=False,
                                      narrow_ids=workspace.narrow_ids)
        buckets = BucketQueue(supports, n_buckets=n_buckets, bucket_width=1)
        regions: list[ParallelRegionRecord] = []

        while buckets:
            vertices, level = buckets.next_bucket()
            batch = np.asarray(vertices, dtype=np.int64)
            # The bucket's lower bound equals the exact support because the
            # width is one; record it as the tip number of every peeled vertex.
            tip_numbers[batch] = supports[batch]
            threshold = int(supports[batch].max()) if batch.size else level

            with tracer.span("parb.round") as round_span:
                update = peel_batch(adjacency, supports, batch, threshold,
                                    kernel=peel_kernel, workspace=workspace)
            if round_span.recording:
                round_span.set(vertices_peeled=int(batch.size),
                               wedges_traversed=int(update.wedges_traversed))
            counters.wedges_traversed += update.wedges_traversed
            counters.peeling_wedges += update.wedges_traversed
            counters.support_updates += update.support_updates
            counters.vertices_peeled += int(batch.size)
            counters.synchronization_rounds += 1
            regions.append(ParallelRegionRecord(
                "parb_round", int(batch.size), float(update.wedges_traversed)))

            buckets.update_many(update.updated_vertices, update.new_supports)

            if wedge_budget is not None and counters.wedges_traversed > wedge_budget:
                raise BudgetExceededError(
                    f"wedge budget of {wedge_budget} exceeded in ParB",
                    wedges_traversed=counters.wedges_traversed,
                    elapsed_seconds=run_span.elapsed(),
                )
            if round_budget is not None and counters.synchronization_rounds > round_budget:
                raise BudgetExceededError(
                    f"round budget of {round_budget} exceeded in ParB",
                    wedges_traversed=counters.wedges_traversed,
                    elapsed_seconds=run_span.elapsed(),
                )

    counters.elapsed_seconds = run_span.duration
    counters.peak_scratch_bytes = max(
        counters.peak_scratch_bytes, workspace.peak_scratch_bytes
    )
    return TipDecompositionResult(
        tip_numbers=tip_numbers,
        side=side,
        initial_butterflies=initial,
        algorithm="ParB",
        counters=counters,
        extra={"n_buckets": n_buckets, "rebuckets": buckets.rebuckets,
               "parallel_regions": regions},
    )
