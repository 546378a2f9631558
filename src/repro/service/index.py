"""The in-memory tip-index: vectorized queries over a decomposition.

A :class:`TipIndex` holds three things next to the raw per-vertex tip
numbers:

* ``order`` — a θ-sorted permutation of the vertex ids (ascending θ,
  ascending id within ties).  One ``searchsorted`` against
  ``tip_numbers[order]`` turns every threshold query into an O(log n)
  bisection plus an O(answer) slice.
* a level CSR — ``level_values`` (the distinct tip numbers, sorted) and
  ``level_offsets`` into ``order``, so the vertex set of any hierarchy
  level is a contiguous slice.  This is the serving-side encoding of
  :class:`repro.analysis.hierarchy.TipHierarchy`.
* optionally the graph itself (reconstructed zero-copy from the artifact's
  CSR arrays) for butterfly-connected community queries, the paper's
  Sec. 6 spam-group use case.

Every query is pure numpy on immutable arrays, so a single index can be
shared freely across the threads of the HTTP server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.hierarchy import butterfly_connected_components, level_wedge_work
from ..errors import ServiceError
from ..graph.bipartite import BipartiteGraph, validate_side
from ..peeling.base import TipDecompositionResult

__all__ = ["TipIndex", "sorted_order", "level_csr"]


def sorted_order(tip_numbers: np.ndarray) -> np.ndarray:
    """Permutation sorting vertices by (tip number asc, vertex id asc).

    The secondary key makes the permutation — and therefore the on-disk
    artifact — a deterministic function of the tip numbers alone.
    """
    tip_numbers = np.asarray(tip_numbers, dtype=np.int64)
    return np.lexsort((np.arange(tip_numbers.shape[0], dtype=np.int64), tip_numbers))


def level_csr(sorted_tips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct levels and their offsets into the θ-sorted permutation.

    ``order[level_offsets[i]:level_offsets[i + 1]]`` is exactly the vertex
    set with tip number ``level_values[i]``.
    """
    sorted_tips = np.asarray(sorted_tips, dtype=np.int64)
    # The input is already sorted, so a level starts wherever the value
    # changes: one O(n) boundary scan instead of ``np.unique``'s sort.
    starts = np.ones(sorted_tips.shape[0], dtype=bool)
    starts[1:] = sorted_tips[1:] != sorted_tips[:-1]
    first_positions = np.flatnonzero(starts).astype(np.int64)
    level_offsets = np.append(first_positions, np.int64(sorted_tips.shape[0]))
    return sorted_tips[first_positions], level_offsets


@dataclass
class TipIndex:
    """Read-optimized queries over one side's tip decomposition."""

    tip_numbers: np.ndarray
    order: np.ndarray
    level_values: np.ndarray
    level_offsets: np.ndarray
    side: str = "U"
    algorithm: str = ""
    initial_butterflies: np.ndarray | None = None
    graph: BipartiteGraph | None = None
    fingerprint: str = ""
    center_butterflies: np.ndarray | None = None
    _sorted_tips: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.side = validate_side(self.side)
        self.tip_numbers = np.asarray(self.tip_numbers, dtype=np.int64)
        self.order = np.asarray(self.order, dtype=np.int64)
        self.level_values = np.asarray(self.level_values, dtype=np.int64)
        self.level_offsets = np.asarray(self.level_offsets, dtype=np.int64)
        # Equivalent to tip_numbers[order] but derived from the two tiny
        # level arrays, so constructing an index over mmap-backed arrays
        # does not page in the full per-vertex members.
        self._sorted_tips = np.repeat(self.level_values, np.diff(self.level_offsets))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: TipDecompositionResult,
        *,
        graph: BipartiteGraph | None = None,
        fingerprint: str = "",
    ) -> "TipIndex":
        """Build the index structures from a fresh decomposition result.

        The one place a build without a prior index derives the θ order
        and level CSR (:func:`~repro.service.artifacts.save_artifact` calls
        it when no index is handed over).
        """
        order = sorted_order(result.tip_numbers)
        level_values, level_offsets = level_csr(result.tip_numbers[order])
        return cls(
            tip_numbers=result.tip_numbers,
            order=order,
            level_values=level_values,
            level_offsets=level_offsets,
            side=result.side,
            algorithm=result.algorithm,
            initial_butterflies=result.initial_butterflies,
            graph=graph,
            fingerprint=fingerprint,
        )

    @classmethod
    def from_artifact(cls, artifact) -> "TipIndex":
        """Wrap a loaded :class:`~repro.service.artifacts.TipArtifact`.

        The artifact's (possibly mmap-backed) arrays are used as-is — no
        copies, no recomputation; the graph is reconstructed zero-copy from
        the stored dual-CSR arrays so community queries work without the
        original input file.
        """
        arrays = artifact.arrays
        manifest = artifact.manifest
        graph_meta = manifest.graph
        graph = BipartiteGraph.from_csr_arrays(
            int(graph_meta["n_u"]),
            int(graph_meta["n_v"]),
            arrays["u_offsets"],
            arrays["u_neighbors"],
            arrays["v_offsets"],
            arrays["v_neighbors"],
            name=str(graph_meta.get("name", "")),
        )
        return cls(
            tip_numbers=arrays["tip_numbers"],
            order=arrays["order"],
            level_values=arrays["level_values"],
            level_offsets=arrays["level_offsets"],
            side=manifest.decomposition["side"],
            algorithm=str(manifest.decomposition.get("algorithm", "")),
            initial_butterflies=arrays["initial_butterflies"],
            graph=graph,
            fingerprint=manifest.fingerprint,
            center_butterflies=arrays.get("center_butterflies"),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices on the decomposed side."""
        return int(self.tip_numbers.shape[0])

    @property
    def max_tip_number(self) -> int:
        """Largest tip number in the decomposition (0 when empty)."""
        return int(self._sorted_tips[-1]) if self._sorted_tips.size else 0

    @property
    def n_levels(self) -> int:
        """Number of distinct tip-number levels."""
        return int(self.level_values.shape[0])

    # ------------------------------------------------------------------
    # Point / batch lookups
    # ------------------------------------------------------------------
    def _validate_vertices(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.n_vertices):
            bad = vertices[(vertices < 0) | (vertices >= self.n_vertices)][0]
            raise ServiceError(
                f"vertex {int(bad)} out of range for side {self.side!r} "
                f"with {self.n_vertices} vertices"
            )
        return vertices

    def theta(self, vertex: int) -> int:
        """Tip number of a single vertex (O(1))."""
        return int(self.tip_numbers[int(self._validate_vertices([vertex])[0])])

    def theta_batch(self, vertices) -> np.ndarray:
        """Tip numbers for a batch of vertices in one vectorized gather."""
        return self.tip_numbers[self._validate_vertices(vertices)]

    # ------------------------------------------------------------------
    # Threshold / ranking queries
    # ------------------------------------------------------------------
    def k_tip_size(self, k: int) -> int:
        """Number of vertices with tip number >= ``k`` (O(log n))."""
        position = int(np.searchsorted(self._sorted_tips, int(k), side="left"))
        return self.n_vertices - position

    def k_tip_members(self, k: int, *, limit: int | None = None) -> np.ndarray:
        """Sorted vertex ids of the union of all k-tips (θ >= k).

        With ``limit``, only the ``limit`` smallest member ids are returned
        — via ``np.partition``, so a truncated request costs O(m) instead
        of a full O(m log m) sort of the member set.
        """
        position = int(np.searchsorted(self._sorted_tips, int(k), side="left"))
        members = self.order[position:]
        if limit is None or limit >= members.size:
            return np.sort(members)
        if limit <= 0:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.partition(members, limit - 1)[:limit])

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` vertices with the highest tip numbers.

        Ordered by descending θ, ascending vertex id within ties — a
        deterministic ranking regardless of how the index was built.
        """
        if k < 1:
            raise ServiceError(f"top-k requires k >= 1, got {k}")
        k = min(int(k), self.n_vertices)
        if k == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # Everything strictly above the boundary θ is in; the remaining
        # slots go to the smallest-id vertices sitting exactly on it.
        boundary = int(self._sorted_tips[self.n_vertices - k])
        first_at = int(np.searchsorted(self._sorted_tips, boundary, side="left"))
        first_above = int(np.searchsorted(self._sorted_tips, boundary, side="right"))
        above = self.order[first_above:]
        at_boundary = np.sort(self.order[first_at:first_above])[: k - above.size]
        selected = np.concatenate([above, at_boundary])
        ranking = selected[np.lexsort((selected, -self.tip_numbers[selected]))]
        return ranking, self.tip_numbers[ranking]

    def histogram(self) -> dict[int, int]:
        """Vertices per distinct tip number (from the level CSR, O(levels))."""
        counts = np.diff(self.level_offsets)
        return {int(value): int(count) for value, count in zip(self.level_values, counts)}

    def levels(self) -> np.ndarray:
        """Sorted distinct tip numbers present in the decomposition."""
        return self.level_values

    # ------------------------------------------------------------------
    # Community queries (paper Sec. 6 use cases)
    # ------------------------------------------------------------------
    def communities(self, k: int, *, vertex: int | None = None) -> list[np.ndarray]:
        """Butterfly-connected components of the level-``k`` vertex set.

        These are the individual k-tips of Definition 1 — the paper's spam
        groups / research communities — found by the wedge kernels' pair
        count over the level's induced subgraph
        (:func:`~repro.analysis.hierarchy.butterfly_connected_components`).
        Components come in order of their smallest member, each holding its
        members as ascending ids.  With ``vertex`` given, only the
        component containing that vertex is returned (empty list when the
        vertex is below level ``k``); the vertex is checked before anything
        is extracted.
        """
        graph = self._community_graph()
        if vertex is not None and self.theta(vertex) < k:
            return []
        components = butterfly_connected_components(graph, self.k_tip_members(k), self.side)
        if vertex is None:
            return components
        return [component for component in components if vertex in component]

    def community_wedge_work(self, k: int) -> int:
        """Wedge endpoints :meth:`communities` gathers at level ``k``
        (:func:`~repro.analysis.hierarchy.level_wedge_work`), known before
        any pair is enumerated."""
        return level_wedge_work(self._community_graph(), self.k_tip_members(k), self.side)

    def _community_graph(self) -> BipartiteGraph:
        if self.graph is None:
            raise ServiceError(
                "this index was built without graph arrays; "
                "community queries require them", status=404,
            )
        return self.graph

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def apply_delta(self, inserts=None, deletes=None, *, config=None):
        """Apply an edge-update batch and return the repaired index.

        The index itself is immutable: the streaming engine
        (:func:`repro.streaming.apply_update`) patches the graph, maintains
        the butterfly counts incrementally and re-peels only the affected
        region, and a *new* :class:`TipIndex` is built over the result.
        Readers keep answering from this index until the caller swaps the
        new one in (the serving layer does so atomically under its update
        lock after persisting the refreshed artifact).

        Parameters
        ----------
        inserts, deletes:
            Edge lists in the graph's canonical ``(u, v)`` orientation.
        config:
            Optional :class:`repro.streaming.StreamingConfig`.

        Returns
        -------
        (TipIndex, StreamingUpdateResult)
            The repaired index (fingerprint unset until persisted) and the
            repair statistics.  This is the one place an update derives its
            θ order and level CSR: a clean update leaves θ as it was and
            carries this index's arrays forward, any other mode sorts once.
            The serving layer persists them as they are.
        """
        if self.graph is None or self.initial_butterflies is None:
            raise ServiceError(
                "this index was built without graph arrays; "
                "streaming updates require them", status=409,
            )
        from ..streaming import EdgeBatch, apply_update
        from ..streaming.repair import MODE_CLEAN

        batch = EdgeBatch.from_lists(inserts, deletes)
        update = apply_update(
            self.graph,
            self.side,
            self.tip_numbers,
            np.asarray(self.initial_butterflies, dtype=np.int64),
            batch,
            center_butterflies=(
                None if self.center_butterflies is None
                else np.asarray(self.center_butterflies, dtype=np.int64)
            ),
            config=config,
        )
        if update.mode == MODE_CLEAN:
            order, level_values, level_offsets = (
                self.order, self.level_values, self.level_offsets)
        else:
            order = sorted_order(update.tip_numbers)
            level_values, level_offsets = level_csr(update.tip_numbers[order])
        repaired = TipIndex(
            tip_numbers=update.tip_numbers,
            order=order,
            level_values=level_values,
            level_offsets=level_offsets,
            side=self.side,
            algorithm=self.algorithm,
            initial_butterflies=update.butterflies,
            graph=update.graph,
            fingerprint="",
            center_butterflies=update.center_butterflies,
        )
        return repaired, update

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Compact summary used by ``/stats`` and ``repro query``."""
        return {
            "side": self.side,
            "algorithm": self.algorithm,
            "n_vertices": self.n_vertices,
            "max_tip_number": self.max_tip_number,
            "n_levels": self.n_levels,
            "fingerprint": self.fingerprint,
            "has_graph": self.graph is not None,
        }
