"""RECEIPT Coarse-grained Decomposition (RECEIPT CD, Alg. 3).

CD partitions the peeled vertex set into ``P`` subsets whose tip numbers
fall into ``P`` disjoint, increasing ranges.  Every peeling iteration
deletes *all* vertices whose support lies inside the current range, which is
what gives RECEIPT its large per-iteration workload and its small number of
synchronization rounds.  Alongside the subsets, CD records the ``⋈init``
support snapshot that Fine-grained Decomposition later uses to initialise
each subset's independent peel.

This module always peels the ``U`` side; the public entry point
(:func:`repro.core.receipt.receipt_decomposition`) swaps the sides of the
graph when the caller asks for ``V``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.bipartite import BipartiteGraph
from ..graph.dynamic import PeelableAdjacency
from ..kernels.workspace import WedgeWorkspace, workspace_or_default
from ..obs.trace import current_tracer
from ..parallel.costmodel import ParallelRegionRecord
from ..peeling.base import PeelingCounters
from ..peeling.update import peel_batch
from .hybrid import (
    RecountCostBound,
    peel_cost,
    recount_cost,
    recount_supports,
    should_recount,
)
from .ranges import AdaptiveRangeTargeter, find_range_upper_bound

__all__ = ["CoarseDecompositionResult", "coarse_grained_decomposition"]


@dataclass
class CoarseDecompositionResult:
    """Output of RECEIPT CD.

    Attributes
    ----------
    bounds:
        Range boundaries ``θ(1) .. θ(P + 1)``; subset ``i`` (0-based) holds
        vertices whose tip numbers lie in ``[bounds[i], bounds[i + 1])``.
    subsets:
        One array of parent-graph ``U`` ids per range, in peel order.
    init_supports:
        The ``⋈init`` vector: for a vertex of subset ``i``, its support
        after every vertex of subsets ``< i`` was peeled and before any
        vertex of subset ``i`` was.
    counters:
        Work counters for the CD phase (excluding the initial pvBcnt).
    iteration_records:
        One record per peeling iteration: subset index, vertices peeled,
        wedges traversed and whether HUC re-counted — the raw material for
        the ablation figures and the parallel cost model.
    targeter_history:
        Adaptive range determination trace (targets, covered work, scaling).
    parallel_regions:
        CD's parallel regions for the cost model, in execution order: per
        subset one ``cd_support_init`` and one ``cd_find_hi`` vertex loop,
        then one ``cd_peel_iteration`` per round with each peeled vertex's
        wedge work as its task work.
    """

    bounds: np.ndarray
    subsets: list[np.ndarray]
    init_supports: np.ndarray
    counters: PeelingCounters
    iteration_records: list[dict] = field(default_factory=list)
    targeter_history: list[dict] = field(default_factory=list)
    parallel_regions: list[ParallelRegionRecord] = field(default_factory=list)

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)

    def subset_of_vertex(self) -> np.ndarray:
        """Array mapping every ``U`` vertex to its subset index (-1 if absent)."""
        membership = np.full(self.init_supports.shape[0], -1, dtype=np.int64)
        for index, subset in enumerate(self.subsets):
            membership[subset] = index
        return membership

    def range_of_subset(self, index: int) -> tuple[int, int]:
        """Tip-number range ``[θ(i), θ(i+1))`` of one subset."""
        return int(self.bounds[index]), int(self.bounds[index + 1])


def coarse_grained_decomposition(
    graph: BipartiteGraph,
    initial_supports: np.ndarray,
    n_partitions: int,
    *,
    enable_huc: bool = True,
    enable_dgm: bool = True,
    huc_cost_factor: float = 1.0,
    adaptive_targets: bool = True,
    workspace: WedgeWorkspace | None = None,
) -> CoarseDecompositionResult:
    """Partition the ``U`` side into tip-number-range subsets (Alg. 3).

    Parameters
    ----------
    graph:
        Bipartite graph whose ``U`` side is being decomposed.
    initial_supports:
        Per-vertex butterfly counts of the ``U`` side (from pvBcnt).
    n_partitions:
        The parameter ``P``: number of ranges to create.  One extra subset
        may be appended for leftover vertices, as in the paper.
    enable_huc:
        Toggle Hybrid Update Computation (re-count instead of peel when
        cheaper).
    enable_dgm:
        Toggle Dynamic Graph Maintenance (periodic adjacency compaction).
    huc_cost_factor:
        Multiplier applied to the re-count cost estimate before comparing it
        to the peel cost.  The paper compares raw wedge bounds (factor 1);
        a factor above one accounts for the higher per-wedge constant of the
        counting kernel relative to the vectorised batch peel in this
        Python implementation.  Must be ``>= 0`` (``ValueError``
        otherwise): the round-to-round lower bound on the re-count cost
        (:class:`~repro.core.hybrid.RecountCostBound`) only answers the
        comparison exactly for a non-negative factor.
    adaptive_targets:
        Use the two-way adaptive range determination of Sec. 3.1.1 (dynamic
        per-subset targets plus overshoot scaling).  When ``False`` every
        subset aims at the static average ``total work / P`` — the naive
        scheme the paper's adaptive mechanism improves on; exposed for the
        design-choice ablation benchmark.
    workspace:
        Scratch arena + memory policy (wedge budget, int32 narrowing) every
        peel iteration and HUC recount runs on; the calling thread's
        default arena when omitted.  Its high-water mark is reported as
        ``counters.peak_scratch_bytes``.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    if not huc_cost_factor >= 0:
        raise ValueError(f"huc_cost_factor must be >= 0, got {huc_cost_factor}")
    workspace = workspace_or_default(workspace)
    counters = PeelingCounters()
    tracer = current_tracer()
    # The CD wall time is derived from this span (not a separate clock), so
    # the reported counters can never drift from the trace.
    cd_span = tracer.timed("cd", n_partitions=n_partitions)
    with cd_span:
        n_u = graph.n_u
        supports = np.array(initial_supports, dtype=np.int64, copy=True)
        if supports.shape[0] != n_u:
            raise ValueError(
                f"initial_supports has {supports.shape[0]} entries, expected {n_u}"
            )
        init_supports = supports.copy()

        wedge_work = graph.wedge_work_per_vertex("U")
        adjacency = PeelableAdjacency(graph, "U", enable_dgm=enable_dgm,
                                      narrow_ids=workspace.narrow_ids)
        alive = adjacency.alive_mask()
        cost_bound = RecountCostBound(graph) if enable_huc else None

        targeter = AdaptiveRangeTargeter(n_partitions=n_partitions)
        static_target = float(wedge_work.sum()) / n_partitions
        bounds: list[int] = [0]
        subsets: list[np.ndarray] = []
        iteration_records: list[dict] = []
        regions: list[ParallelRegionRecord] = []

        while alive.any() and not targeter.exhausted:
            lower_bound = bounds[-1]
            alive_vertices = np.flatnonzero(alive)

            # Snapshot ⋈init for every remaining vertex: this is its support
            # after all earlier subsets were peeled (lines 6-7 of Alg. 3).
            alive_supports = supports[alive_vertices]
            init_supports[alive_vertices] = alive_supports
            regions.append(ParallelRegionRecord(
                "cd_support_init", int(alive_vertices.size), float(alive_vertices.size),
                scheduling="static"))

            alive_work = wedge_work[alive_vertices]
            remaining_work = float(alive_work.sum())
            if adaptive_targets:
                target_work = targeter.next_target(remaining_work)
            else:
                target_work = static_target
            upper_bound = find_range_upper_bound(alive_supports, alive_work, target_work)
            upper_bound = max(upper_bound, lower_bound + 1)
            regions.append(ParallelRegionRecord(
                "cd_find_hi", int(alive_vertices.size), float(alive_vertices.size),
                scheduling="static"))

            subset_pieces: list[np.ndarray] = []
            active_set = alive_vertices[alive_supports < upper_bound]

            while active_set.size:
                counters.synchronization_rounds += 1
                subset_pieces.append(active_set)
                counters.vertices_peeled += int(active_set.size)

                cost_of_peeling = peel_cost(wedge_work, active_set)
                use_recount = False
                if enable_huc:
                    # The bound decides most rounds; the exact O(|E|) cost is
                    # computed only when it cannot, and then resets the bound.
                    cost_bound.remove(active_set)
                    if not cost_bound.peel_is_cheaper(cost_of_peeling, huc_cost_factor):
                        cost_of_recounting = recount_cost(graph, cost_bound.residual,
                                                          cost_bound)
                        cost_bound.lower = cost_of_recounting
                        use_recount = should_recount(
                            cost_of_peeling, huc_cost_factor * cost_of_recounting
                        )

                with tracer.span("cd.peel_iteration") as iteration_span:
                    if use_recount:
                        adjacency.mark_peeled_many(active_set)
                        still_alive = np.flatnonzero(alive)
                        outcome = recount_supports(graph, alive, alive_vertices=still_alive,
                                                   workspace=workspace)
                        supports[still_alive] = np.maximum(
                            outcome.supports[still_alive], lower_bound
                        )
                        adjacency.record_traversal(outcome.wedges_traversed)
                        adjacency.maybe_compact()
                        counters.wedges_traversed += outcome.wedges_traversed
                        counters.counting_wedges += outcome.wedges_traversed
                        counters.recount_invocations += 1
                        wedges_this_iteration = outcome.wedges_traversed
                        candidate_vertices = still_alive
                    else:
                        # peel_batch runs DGM itself, after the whole batch.
                        update = peel_batch(adjacency, supports, active_set, lower_bound,
                                            workspace=workspace)
                        counters.wedges_traversed += update.wedges_traversed
                        counters.peeling_wedges += update.wedges_traversed
                        counters.support_updates += update.support_updates
                        wedges_this_iteration = update.wedges_traversed
                        candidate_vertices = update.updated_vertices
                if iteration_span.recording:
                    iteration_span.set(
                        subset=len(subsets),
                        vertices_peeled=int(active_set.size),
                        wedges_traversed=int(wedges_this_iteration),
                        recounted=bool(use_recount),
                    )

                regions.append(ParallelRegionRecord(
                    "cd_peel_iteration", int(active_set.size), float(wedges_this_iteration),
                    task_work=wedge_work[active_set].astype(np.float64),
                ))
                iteration_records.append(
                    {
                        "subset": len(subsets),
                        "vertices_peeled": int(active_set.size),
                        "wedges_traversed": int(wedges_this_iteration),
                        "recounted": bool(use_recount),
                        "lower_bound": int(lower_bound),
                        "upper_bound": int(upper_bound),
                    }
                )

                if candidate_vertices.size:
                    candidate_vertices = candidate_vertices[alive[candidate_vertices]]
                    active_set = candidate_vertices[supports[candidate_vertices] < upper_bound]
                    # Sort the next batch: within an iteration vertex order is
                    # semantically arbitrary (updates commute), but
                    # support_updates replays clamps in batch order, so the
                    # order must not depend on the peel kernel's internal
                    # update ordering.
                    active_set = np.sort(active_set)
                else:
                    active_set = np.zeros(0, dtype=np.int64)

            subset = (
                np.concatenate(subset_pieces) if subset_pieces else np.zeros(0, dtype=np.int64)
            )
            covered_work = float(wedge_work[subset].sum()) if subset.size else 0.0
            targeter.record_subset(target_work, covered_work)
            subsets.append(subset)
            bounds.append(int(upper_bound))

        # Leftover vertices (the planned P subsets did not exhaust U): the paper
        # places them all in one extra subset U_{P+1}.
        leftover = np.flatnonzero(alive)
        if leftover.size:
            init_supports[leftover] = supports[leftover]
            subsets.append(leftover)
            bounds.append(int(supports[leftover].max()) + 1)
            counters.vertices_peeled += int(leftover.size)

    counters.elapsed_seconds = cd_span.duration
    counters.dgm_compactions = adjacency.compactions_performed
    counters.peak_scratch_bytes = workspace.peak_scratch_bytes
    if cd_span.recording:
        cd_span.set(
            n_subsets=len(subsets),
            wedges_traversed=counters.wedges_traversed,
            vertices_peeled=counters.vertices_peeled,
            synchronization_rounds=counters.synchronization_rounds,
            peak_scratch_bytes=counters.peak_scratch_bytes,
        )
    return CoarseDecompositionResult(
        bounds=np.asarray(bounds, dtype=np.int64),
        subsets=subsets,
        init_supports=init_supports,
        counters=counters,
        iteration_records=iteration_records,
        targeter_history=targeter.history,
        parallel_regions=regions,
    )
