"""Bounded tip-number repair: re-peel only what an update batch can reach.

Exactness argument (the hypothesis suite and the CI streaming gate assert it
bit-for-bit against from-scratch peeling):

* **Frozen prefix.**  Let *dirty* be the frontier vertices whose butterfly
  count or pairwise shared-butterfly counts changed
  (:class:`~repro.streaming.support.RegionDelta`), each with floor
  ``s(a) = θ_old(a) + min(0, Δ⋈(a))``.  While bottom-up peeling of the new
  graph stays below ``min s(a)``, every dirty vertex receives exactly the
  updates of the old run shifted by its own ``Δ⋈`` (its sub-floor partners
  are clean, so shared counts are unchanged), keeping its support at or
  above its floor; clean vertices evolve identically.  Every vertex with
  ``θ_old`` below the floor therefore keeps its tip number.

* **Component-confined suffix.**  Peeling the suffix ``{θ_old >= k}``
  decomposes into independent peels of the butterfly-connected components
  of the subgraph induced on it (support updates travel only between
  vertices sharing a butterfly).  A component with no dirty vertex has
  unchanged membership, supports and pair counts — a changed pair would
  have made its endpoints dirty — so its peel replays the old one.  Only
  components containing dirty vertices are re-peeled, with initial supports
  equal to their butterfly counts inside the induced subgraph — exactly
  RECEIPT FD's ``⋈init`` construction (Alg. 4).

* **Floor grouping.**  Dirty vertices with distant floors usually live in
  unrelated parts of the butterfly topology, so seeds are grouped by floor
  and each group is closed within its own suffix ``{θ_old >= k_group}``.
  Groups whose closures collide merge (taking the lower floor) and re-close
  — the fixpoint nests the prefix argument per region, so a low-floor seed
  in a far-away corner no longer drags the whole high-θ core into its mask.

The re-peel region's wedge work is capped by a configurable damage
threshold; past it (tracked *while* the closure grows, so a runaway region
is abandoned early) the repair falls back to a full re-decomposition.  The
fallback reuses the incrementally maintained per-vertex butterfly counts of
both sides when available, skipping the global re-count phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..butterfly.counting import ButterflyCounts, count_per_vertex_priority
from ..core.receipt import tip_decomposition
from ..errors import DecompositionError
from ..graph.bipartite import BipartiteGraph, opposite_side, validate_side
from ..kernels.peel import count_pair_wedges
from ..kernels.wedges import gather_batch_wedges
from ..kernels.workspace import WedgeWorkspace, workspace_or_default
from ..obs.trace import current_tracer
from ..peeling.base import PeelingCounters
from ..peeling.bup import peel_levels
from .deltas import EdgeBatch, apply_batch
from .support import RegionDelta, support_delta

__all__ = [
    "StreamingConfig",
    "StreamingUpdateResult",
    "butterfly_closure",
    "apply_update",
]

#: Update modes, from cheapest to most expensive.
MODE_CLEAN = "clean"
MODE_INCREMENTAL = "incremental"
MODE_FULL = "full"

#: Cap on closure/merge fixpoint rounds before conceding to the full
#: fallback (each round can only merge floor groups, so the cap is a safety
#: valve, not a tuning target).
MAX_GROUP_ROUNDS = 8


@dataclass(frozen=True)
class StreamingConfig:
    """Tuning knobs of the streaming update engine.

    Attributes
    ----------
    damage_threshold:
        Fraction of the graph's total wedge work the re-peel region may
        reach before the repair abandons the closure and falls back to a
        full re-decomposition.
    full_algorithm:
        Decomposition algorithm of the full fallback (``"receipt"``,
        ``"bup"`` or ``"parb"``).
    full_kwargs:
        Extra keyword arguments for the fallback (e.g. ``n_partitions``).
    """

    damage_threshold: float = 0.5
    full_algorithm: str = "receipt"
    full_kwargs: dict = field(default_factory=dict)


@dataclass
class StreamingUpdateResult:
    """Outcome of applying one edge batch to a served decomposition."""

    graph: BipartiteGraph
    side: str
    tip_numbers: np.ndarray
    butterflies: np.ndarray
    mode: str
    k_seed: int
    n_frontier: int
    n_dirty: int
    n_repeeled: int
    damage_ratio: float
    inserted: int
    deleted: int
    center_butterflies: np.ndarray | None = None
    counters: PeelingCounters = field(default_factory=PeelingCounters)

    def summary(self) -> dict:
        """JSON-able digest used by the ``/update`` endpoint and the CLI."""
        return {
            "mode": self.mode,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "k_seed": self.k_seed,
            "frontier_vertices": self.n_frontier,
            "dirty_vertices": self.n_dirty,
            "repeeled_vertices": self.n_repeeled,
            "frozen_vertices": int(self.tip_numbers.shape[0] - self.n_repeeled),
            "damage_ratio": round(float(self.damage_ratio), 6),
            "wedges_traversed": self.counters.wedges_traversed,
            "elapsed_seconds": self.counters.elapsed_seconds,
        }


def butterfly_closure(
    graph: BipartiteGraph,
    side: str,
    seeds: np.ndarray,
    mask: np.ndarray,
    *,
    work: np.ndarray | None = None,
    work_budget: int | None = None,
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray | None, int]:
    """Vertices butterfly-connected to ``seeds`` within the masked subset.

    Breadth-first expansion along butterfly-partner pairs (two vertices
    sharing at least two centers, i.e. at least one butterfly), restricted
    to vertices where ``mask`` is ``True``.  Each frontier expands through
    one wedge gather plus one pair count, so the cost is the wedge
    neighborhood of the returned component — never the whole graph.

    With ``work``/``work_budget`` given, the expansion is abandoned — the
    first element of the result is ``None`` — as soon as the visited set's
    accumulated per-vertex work exceeds the budget, so a region that is
    going to trip the damage threshold anyway never pays for its own full
    traversal.  The second element is always the wedge endpoints touched.
    """
    side = validate_side(side)
    workspace = workspace_or_default(workspace)
    seeds = np.asarray(seeds, dtype=np.int64)
    peel_offsets, peel_neighbors = graph.csr(side)
    center_offsets, center_neighbors = graph.csr(opposite_side(side))

    visited = np.zeros(graph.side_size(side), dtype=bool)
    visited[seeds] = True
    unvisited_in_mask = mask & ~visited
    frontier = seeds
    wedges = 0
    visited_work = int(work[seeds].sum()) if work is not None else 0
    while frontier.size:
        if work_budget is not None and visited_work > work_budget:
            return None, wedges
        endpoints, endpoints_per_vertex = gather_batch_wedges(
            peel_offsets, peel_neighbors, center_offsets, center_neighbors, frontier,
            workspace=workspace,
        )
        wedges += int(endpoints.size)
        pairs = count_pair_wedges(
            endpoints,
            np.arange(frontier.shape[0], dtype=np.int64),
            endpoints_per_vertex,
            frontier,
            unvisited_in_mask,
            workspace=workspace,
        )
        frontier = np.unique(pairs.endpoints)
        visited[frontier] = True
        unvisited_in_mask[frontier] = False
        if work is not None and frontier.size:
            visited_work += int(work[frontier].sum())
    return np.flatnonzero(visited).astype(np.int64), wedges


def _floor_groups(seeds: np.ndarray, floors: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Group dirty seeds into ``(k, seeds)`` buckets by floor magnitude.

    One bucket per power-of-two floor band keeps the group count (and with
    it the closure rounds) logarithmic in ``θ_max`` while seeds with
    similar floors — which overwhelmingly share a region anyway — are
    closed together from the start.  Each bucket's level is the lowest
    floor it contains, so bucketing never unfreezes too little.
    """
    bands = np.int64(np.maximum(floors, 0) + 1)
    bits = np.zeros(bands.shape[0], dtype=np.int64)
    remaining = bands.copy()
    while np.any(remaining > 1):
        high = remaining > 1
        bits[high] += 1
        remaining[high] >>= 1
    groups = []
    for band in np.unique(bits):
        members = bits == band
        groups.append((int(floors[members].min()), seeds[members]))
    return groups


def _merge_groups(
    groups: list[tuple[int, np.ndarray]],
    regions: list[np.ndarray],
    n_side: int,
) -> list[tuple[int, np.ndarray]] | None:
    """Merge floor groups whose closures overlap; ``None`` when already stable.

    Two overlapping regions must be re-peeled together at the lower floor
    (their butterfly interactions cross the higher group's mask), so their
    seed sets are unioned and the closure fixpoint runs another round.
    """
    parent = list(range(len(groups)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    stamp = np.full(n_side, -1, dtype=np.int64)
    merged = False
    for index, region in enumerate(regions):
        hits = np.unique(stamp[region])
        for other in hits[hits >= 0]:
            root_a, root_b = find(index), find(int(other))
            if root_a != root_b:
                parent[root_b] = root_a
                merged = True
        stamp[region] = find(index)
    if not merged:
        return None
    combined: dict[int, list[int]] = {}
    for index in range(len(groups)):
        combined.setdefault(find(index), []).append(index)
    return [
        (
            min(groups[i][0] for i in members),
            np.unique(np.concatenate([groups[i][1] for i in members])),
        )
        for members in combined.values()
    ]


def _repair_region(
    new_graph: BipartiteGraph,
    side: str,
    dirty: np.ndarray,
    floors: np.ndarray,
    tip_numbers: np.ndarray,
    work: np.ndarray,
    work_budget: int,
    workspace: WedgeWorkspace | None = None,
) -> tuple[list[tuple[int, np.ndarray]] | None, int]:
    """Resolve the re-peel regions, or ``None`` when damage exceeds the budget.

    Returns ``([(k, region_vertices), ...], wedges)``: disjoint
    butterfly-closed regions, each carrying the floor level its suffix mask
    froze at.
    """
    groups = _floor_groups(dirty, floors)
    wedges_total = 0
    for _ in range(MAX_GROUP_ROUNDS):
        regions = []
        union_work = 0
        for level, seeds in groups:
            region, wedges = butterfly_closure(
                new_graph, side, seeds, tip_numbers >= level,
                work=work, work_budget=work_budget, workspace=workspace,
            )
            wedges_total += wedges
            if region is None or wedges_total > work_budget:
                # Either one region tripped the damage threshold or the
                # closure/merge search itself has spent more traversal than
                # the threshold allows — stop probing and re-peel fully.
                return None, wedges_total
            union_work += int(work[region].sum())
            if union_work > work_budget:
                # Regions are not yet deduplicated, so this overshoots only
                # when the true union is close to the budget anyway.
                return None, wedges_total
            regions.append(region)
        merged = _merge_groups(groups, regions, tip_numbers.shape[0])
        if merged is None:
            return list(zip((level for level, _ in groups), regions)), wedges_total
        groups = merged
    return None, wedges_total


def _full_redecomposition(
    new_graph: BipartiteGraph,
    side: str,
    maintained: np.ndarray,
    maintained_center: np.ndarray | None,
    config: StreamingConfig,
) -> tuple[np.ndarray, np.ndarray, PeelingCounters]:
    """The fallback path: decompose the updated graph from scratch.

    When both sides' butterfly counts have been maintained incrementally
    they are handed to the decomposition, which skips the global re-count
    phase (the cross-side sum invariant was already checked when they were
    maintained).  Otherwise the fresh count doubles as an integrity check
    on the maintained peeled-side supports — a mismatch means the
    maintenance layer has a bug and must fail loudly rather than keep
    serving drifted counts.
    """
    kwargs = dict(config.full_kwargs)
    if maintained_center is not None:
        u_counts = maintained if side == "U" else maintained_center
        v_counts = maintained_center if side == "U" else maintained
        kwargs["counts"] = ButterflyCounts(
            u_counts=u_counts, v_counts=v_counts,
            wedges_traversed=0, algorithm="streaming-maintained",
        )
    result = tip_decomposition(
        new_graph, side,
        algorithm=config.full_algorithm,
        **kwargs,
    )
    if not np.array_equal(result.initial_butterflies, maintained):
        raise DecompositionError(
            "incrementally maintained butterfly counts disagree with a fresh "
            "count of the updated graph"
        )
    return result.tip_numbers, result.initial_butterflies, result.counters


def apply_update(
    graph: BipartiteGraph,
    side: str,
    tip_numbers: np.ndarray,
    butterflies: np.ndarray,
    batch: EdgeBatch,
    *,
    center_butterflies: np.ndarray | None = None,
    config: StreamingConfig | None = None,
) -> StreamingUpdateResult:
    """Apply one edge batch to a decomposition, repairing tip numbers.

    Parameters
    ----------
    graph:
        The graph the decomposition was computed on.
    side:
        The decomposed side.
    tip_numbers, butterflies:
        The current exact tip numbers and per-vertex butterfly counts of
        ``side`` (e.g. from a served :class:`~repro.service.index.TipIndex`).
    batch:
        Validated-on-entry edge updates in ``(u, v)`` orientation.
    center_butterflies:
        Optional per-vertex butterfly counts of the *other* side.  When
        given they are maintained incrementally too and let the full
        fallback skip its global re-count phase.
    config:
        Tuning knobs; defaults to :class:`StreamingConfig`.

    Returns
    -------
    StreamingUpdateResult
        The patched graph plus exact updated tip numbers and butterfly
        counts, with mode/size/work statistics for observability.
    """
    config = config or StreamingConfig()
    side = validate_side(side)
    counters = PeelingCounters()
    tracer = current_tracer()
    update_span = tracer.timed("streaming.update", side=side)
    with update_span:
        # One fresh arena per update: every recount, closure expansion and
        # localized re-peel of this batch reuses the same buffers, and the
        # update's counters report the arena's exact high-water mark.
        workspace = WedgeWorkspace()
        tip_numbers = np.asarray(tip_numbers, dtype=np.int64)
        butterflies = np.asarray(butterflies, dtype=np.int64)
        n_side = graph.side_size(side)
        if tip_numbers.shape[0] != n_side or butterflies.shape[0] != n_side:
            raise DecompositionError(
                f"tip numbers / butterfly counts do not match side {side!r} "
                f"({tip_numbers.shape[0]} / {butterflies.shape[0]} entries, "
                f"expected {n_side})"
            )

        new_graph = apply_batch(graph, batch)

        def _result(mode, new_tips, new_counts, new_center, *, k_seed=0,
                    delta: RegionDelta | None = None, n_repeeled=0, damage=0.0):
            # ``update_span`` is still open here (the closure runs inside the
            # with-block), so the elapsed read and the span share one clock.
            counters.elapsed_seconds = update_span.elapsed()
            counters.peak_scratch_bytes = max(
                counters.peak_scratch_bytes, workspace.peak_scratch_bytes
            )
            if update_span.recording:
                update_span.set(mode=mode, n_repeeled=int(n_repeeled),
                                wedges_traversed=counters.wedges_traversed,
                                peak_scratch_bytes=counters.peak_scratch_bytes)
            return StreamingUpdateResult(
                graph=new_graph,
                side=side,
                tip_numbers=new_tips,
                butterflies=new_counts,
                center_butterflies=new_center,
                mode=mode,
                k_seed=int(k_seed),
                n_frontier=0 if delta is None else int(delta.scanned.shape[0]),
                n_dirty=0 if delta is None else int(delta.dirty.shape[0]),
                n_repeeled=int(n_repeeled),
                damage_ratio=float(damage),
                inserted=int(batch.inserts.shape[0]),
                deleted=int(batch.deletes.shape[0]),
                counters=counters,
            )

        if batch.is_empty:
            return _result(MODE_CLEAN, tip_numbers, butterflies, center_butterflies)

        # 1. Exact support maintenance on the delta frontier (both sides when
        #    the center counts are being carried along).
        with tracer.span("streaming.support_delta"):
            delta = support_delta(graph, new_graph, batch, side, workspace=workspace)
            counters.wedges_traversed += delta.wedges_traversed
            counters.counting_wedges += delta.wedges_traversed
            new_butterflies = delta.apply_to(butterflies)
            new_center = None
            if center_butterflies is not None:
                center_delta = support_delta(graph, new_graph, batch,
                                             opposite_side(side), workspace=workspace)
                counters.wedges_traversed += center_delta.wedges_traversed
                counters.counting_wedges += center_delta.wedges_traversed
                new_center = center_delta.apply_to(center_butterflies)

        if new_center is not None and int(new_butterflies.sum()) != int(new_center.sum()):
            # Both sides of every butterfly carry two of its four vertices, so
            # the per-side count sums must agree; a mismatch means one side's
            # maintenance drifted and must fail loudly before it is persisted.
            raise DecompositionError(
                "incrementally maintained butterfly counts disagree across sides"
            )

        dirty = delta.dirty_vertices
        if dirty.size == 0:
            # No butterfly was created or destroyed and no pairwise shared count
            # moved: peeling would replay bit-for-bit, so don't.
            return _result(MODE_CLEAN, tip_numbers, new_butterflies, new_center,
                           delta=delta)

        # 2. Safe frozen floors and the re-peel regions they admit.
        floors = np.maximum(tip_numbers[dirty] + np.minimum(0, delta.delta), 0)
        k_seed = int(floors.min())
        work = new_graph.wedge_work_per_vertex(side)
        total_work = int(work.sum())
        # Saturate: a huge finite threshold means "never fall back", not an
        # int64 overflow.
        work_budget = int(min(config.damage_threshold * total_work, np.iinfo(np.int64).max))
        with tracer.span("streaming.repair_region"):
            regions, closure_wedges = _repair_region(
                new_graph, side, dirty, floors, tip_numbers, work, work_budget,
                workspace=workspace,
            )
        counters.wedges_traversed += closure_wedges
        counters.peeling_wedges += closure_wedges

        if regions is None:
            with tracer.span("streaming.full_rebuild"):
                new_tips, new_counts, full_counters = _full_redecomposition(
                    new_graph, side, new_butterflies, new_center, config
                )
            counters.merge(full_counters)
            return _result(MODE_FULL, new_tips, new_counts, new_center, k_seed=k_seed,
                           delta=delta, n_repeeled=n_side, damage=1.0)

        # 3. Localized exact re-peel per region: FD's induced subgraph, ⋈init
        #    and level peel (Alg. 4); everything else keeps its old tip number.
        working = new_graph if side == "U" else new_graph.swap_sides()
        new_tips = tip_numbers.copy()
        n_repeeled = 0
        damage = 0.0
        for level, region in regions:
            damage += float(work[region].sum() / total_work) if total_work else 0.0
            n_repeeled += int(region.shape[0])
            with tracer.span("streaming.repeel_region") as region_span:
                induced = working.induced_on_u_subset(region)
                counts = count_per_vertex_priority(induced.graph, workspace=workspace)
                counters.wedges_traversed += counts.wedges_traversed
                counters.counting_wedges += counts.wedges_traversed
                region_tips, peel_counters, _ = peel_levels(
                    induced.graph, "U", counts.u_counts, workspace=workspace,
                )
                counters.merge(peel_counters)
            if region_span.recording:
                region_span.set(n_vertices=int(region.shape[0]), level=int(level))
            if region_tips.size and int(region_tips.min()) < level:
                # The localized peel crossed its own frozen boundary —
                # theoretically impossible; recompute from scratch rather than
                # serve a bad repair.
                with tracer.span("streaming.full_rebuild"):
                    new_tips, new_counts, full_counters = _full_redecomposition(
                        new_graph, side, new_butterflies, new_center, config
                    )
                counters.merge(full_counters)
                return _result(MODE_FULL, new_tips, new_counts, new_center,
                               k_seed=k_seed, delta=delta, n_repeeled=n_side,
                               damage=1.0)
            new_tips[induced.u_old_of_new] = region_tips
        return _result(MODE_INCREMENTAL, new_tips, new_butterflies, new_center,
                       k_seed=k_seed, delta=delta, n_repeeled=n_repeeled,
                       damage=damage)
