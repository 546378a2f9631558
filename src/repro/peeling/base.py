"""Shared result and instrumentation types for all decomposition algorithms.

Every tip-decomposition algorithm in this library (sequential BUP, the ParB
baseline, RECEIPT) returns a :class:`TipDecompositionResult` and fills in a
:class:`PeelingCounters` so that the benchmark harness can compare execution
time, wedge traversal and synchronization rounds exactly as Table 3 of the
paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.bipartite import validate_side

__all__ = ["PeelingCounters", "TipDecompositionResult"]


@dataclass
class PeelingCounters:
    """Work counters accumulated while peeling.

    Attributes
    ----------
    wedges_traversed:
        Wedge endpoints touched, the paper's primary work metric (``Ó``).
    counting_wedges:
        Portion of :attr:`wedges_traversed` spent inside butterfly
        (re-)counting kernels (pvBcnt and HUC recounts).
    peeling_wedges:
        Portion spent inside peeling updates.
    support_updates:
        Number of per-vertex support decrements applied.
    synchronization_rounds:
        Parallel peeling rounds (``ρ`` in Table 3).  Sequential BUP counts
        its peel iterations here for reference, but the paper only reports
        the metric for parallel algorithms.
    vertices_peeled:
        Vertices whose tip number has been fixed.
    recount_invocations:
        Number of times HUC chose to re-count instead of peel.
    dgm_compactions:
        Number of Dynamic Graph Maintenance compactions performed.
    elapsed_seconds:
        Wall-clock execution time of the phase / algorithm.
    peak_scratch_bytes:
        High-water mark of the wedge-pipeline scratch arena(s) the phase
        ran on (:class:`~repro.kernels.workspace.WedgeWorkspace`).  Merged
        with ``max`` — peaks do not add up across phases that reuse one
        arena — and bounded by the configured wedge budget.
    """

    wedges_traversed: int = 0
    counting_wedges: int = 0
    peeling_wedges: int = 0
    support_updates: int = 0
    synchronization_rounds: int = 0
    vertices_peeled: int = 0
    recount_invocations: int = 0
    dgm_compactions: int = 0
    elapsed_seconds: float = 0.0
    peak_scratch_bytes: int = 0

    def merge(self, other: "PeelingCounters") -> None:
        """Accumulate another counter set into this one (phase composition)."""
        self.wedges_traversed += other.wedges_traversed
        self.counting_wedges += other.counting_wedges
        self.peeling_wedges += other.peeling_wedges
        self.support_updates += other.support_updates
        self.synchronization_rounds += other.synchronization_rounds
        self.vertices_peeled += other.vertices_peeled
        self.recount_invocations += other.recount_invocations
        self.dgm_compactions += other.dgm_compactions
        self.elapsed_seconds += other.elapsed_seconds
        self.peak_scratch_bytes = max(self.peak_scratch_bytes, other.peak_scratch_bytes)

    def as_dict(self) -> dict:
        return {
            "wedges_traversed": self.wedges_traversed,
            "counting_wedges": self.counting_wedges,
            "peeling_wedges": self.peeling_wedges,
            "support_updates": self.support_updates,
            "synchronization_rounds": self.synchronization_rounds,
            "vertices_peeled": self.vertices_peeled,
            "recount_invocations": self.recount_invocations,
            "dgm_compactions": self.dgm_compactions,
            "elapsed_seconds": self.elapsed_seconds,
            "peak_scratch_bytes": self.peak_scratch_bytes,
        }


@dataclass
class TipDecompositionResult:
    """Tip numbers for one side of a bipartite graph plus run statistics.

    Attributes
    ----------
    tip_numbers:
        ``tip_numbers[u]`` is θ_u for every vertex of the decomposed side.
    side:
        Which side was decomposed (``"U"`` or ``"V"``).
    initial_butterflies:
        Per-vertex butterfly counts used to initialise supports.
    algorithm:
        Human-readable name of the algorithm that produced the result.
    counters:
        Aggregated work counters.
    phase_counters:
        Optional per-phase breakdown (e.g. ``{"pvBcnt": ..., "cd": ...,
        "fd": ...}`` for RECEIPT) used by the Figs. 8 / 9 benchmarks.
    extra:
        Free-form algorithm-specific payload (e.g. RECEIPT's partition
        boundaries).
    """

    tip_numbers: np.ndarray
    side: str
    initial_butterflies: np.ndarray
    algorithm: str
    counters: PeelingCounters = field(default_factory=PeelingCounters)
    phase_counters: dict[str, PeelingCounters] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.side = validate_side(self.side)
        self.tip_numbers = np.asarray(self.tip_numbers, dtype=np.int64)
        self.initial_butterflies = np.asarray(self.initial_butterflies, dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        """Number of vertices on the decomposed side."""
        return int(self.tip_numbers.shape[0])

    @property
    def max_tip_number(self) -> int:
        """The largest tip number (``θ_max`` of Table 2)."""
        return int(self.tip_numbers.max()) if self.tip_numbers.size else 0

    def tip_number(self, vertex: int) -> int:
        """Tip number of a single vertex."""
        return int(self.tip_numbers[vertex])

    def vertices_with_tip_at_least(self, k: int) -> np.ndarray:
        """Vertices belonging to the ``k``-tip (θ_u >= k)."""
        return np.flatnonzero(self.tip_numbers >= k).astype(np.int64)

    def histogram(self) -> dict[int, int]:
        """Number of vertices per distinct tip number."""
        values, counts = np.unique(self.tip_numbers, return_counts=True)
        return {int(value): int(count) for value, count in zip(values, counts)}

    def cumulative_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted tip numbers and cumulative vertex fractions (Fig. 4 series)."""
        sorted_values = np.sort(self.tip_numbers)
        fractions = np.arange(1, sorted_values.size + 1, dtype=np.float64) / max(sorted_values.size, 1)
        return sorted_values, fractions

    def same_tip_numbers(self, other: "TipDecompositionResult") -> bool:
        """Whether two results assign identical tip numbers."""
        return bool(np.array_equal(self.tip_numbers, other.tip_numbers))

    def summary(self) -> dict:
        """Compact dictionary used by the CLI and the benchmark reports."""
        return {
            "algorithm": self.algorithm,
            "side": self.side,
            "n_vertices": self.n_vertices,
            "max_tip_number": self.max_tip_number,
            "total_butterflies": int(self.initial_butterflies.sum()) // 2,
            **self.counters.as_dict(),
        }
