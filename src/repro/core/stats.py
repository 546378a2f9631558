"""Post-run analysis helpers for RECEIPT results.

These utilities turn a :class:`~repro.peeling.base.TipDecompositionResult`
produced by :func:`~repro.core.receipt.receipt_decomposition` into the
derived quantities the paper's evaluation section reports: per-phase wedge
and time breakdowns (Figs. 8 and 9), the peel-vs-count work ratio ``r`` that
predicts HUC's benefit (Sec. 5.2.2), and the parallel cost model behind the
speedup projections (Figs. 10 and 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.costmodel import DEFAULT_BARRIER_COST, ParallelCostModel
from ..peeling.base import TipDecompositionResult

__all__ = [
    "PhaseBreakdown",
    "wedge_breakdown",
    "time_breakdown",
    "peel_to_count_ratio",
    "build_cost_model",
    "projected_speedups",
]

_PHASES = ("pvBcnt", "cd", "fd")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Absolute and fractional contribution of each RECEIPT phase."""

    absolute: dict[str, float]
    fraction: dict[str, float]

    @property
    def total(self) -> float:
        return float(sum(self.absolute.values()))


def _breakdown(values: dict[str, float]) -> PhaseBreakdown:
    total = sum(values.values())
    fractions = {
        phase: (value / total if total > 0 else 0.0) for phase, value in values.items()
    }
    return PhaseBreakdown(absolute=values, fraction=fractions)


def wedge_breakdown(result: TipDecompositionResult) -> PhaseBreakdown:
    """Wedges traversed by pvBcnt / CD / FD (the Fig. 8 bars)."""
    if not result.phase_counters:
        return _breakdown({"total": float(result.counters.wedges_traversed)})
    values = {
        phase: float(result.phase_counters[phase].wedges_traversed)
        for phase in _PHASES
        if phase in result.phase_counters
    }
    return _breakdown(values)


def time_breakdown(result: TipDecompositionResult) -> PhaseBreakdown:
    """Execution time of pvBcnt / CD / FD (the Fig. 9 bars)."""
    if not result.phase_counters:
        return _breakdown({"total": float(result.counters.elapsed_seconds)})
    values = {
        phase: float(result.phase_counters[phase].elapsed_seconds)
        for phase in _PHASES
        if phase in result.phase_counters
    }
    return _breakdown(values)


def peel_to_count_ratio(result: TipDecompositionResult) -> float:
    """The ratio ``r = ∧peel / ∧cnt`` of Sec. 5.2.2.

    Large ``r`` (the paper quotes > 1000 for ItU, LjU, EnU, TrU) predicts a
    large benefit from HUC; ``r < 5`` predicts none.  The numerator is the
    peel work of sequential BUP (``sum_u sum_{v in N(u)} d_v``), which is a
    property of the graph, so the ratio is computed from the result's
    recorded totals when available and falls back to phase counters.
    """
    extra = result.extra or {}
    peel_work = extra.get("bup_peel_work")
    count_work = None
    if result.phase_counters and "pvBcnt" in result.phase_counters:
        count_work = float(result.phase_counters["pvBcnt"].wedges_traversed)
    if peel_work is None or count_work is None or count_work == 0:
        counting = float(result.counters.counting_wedges)
        peeling = float(result.counters.peeling_wedges)
        return peeling / counting if counting > 0 else float("inf")
    return float(peel_work) / float(count_work)


def build_cost_model(
    result: TipDecompositionResult,
    *,
    barrier_cost: float = DEFAULT_BARRIER_COST,
    numa_threshold: int = 18,
    numa_penalty: float = 0.25,
) -> ParallelCostModel:
    """Construct the parallel cost model from a run's recorded regions.

    Every parallel region a RECEIPT run returns in
    ``extra["parallel_regions"]`` (the pvBcnt passes, CD's per-subset loops
    and peel iterations, FD's subsets with their measured wedge work)
    becomes one region of the model; replaying them for a given thread
    count yields the projected execution cost.  ParB results carry their
    rounds the same way.
    """
    regions = (result.extra or {}).get("parallel_regions")
    if not regions:
        raise ValueError(
            "result does not carry recorded parallel regions; "
            "run receipt_decomposition to obtain them"
        )
    return ParallelCostModel.from_region_records(
        regions,
        barrier_cost=barrier_cost,
        numa_threshold=numa_threshold,
        numa_penalty=numa_penalty,
    )


def projected_speedups(
    result: TipDecompositionResult,
    thread_counts: tuple[int, ...] = (1, 2, 4, 9, 18, 36),
    **model_kwargs,
) -> dict[int, float]:
    """Projected self-relative speedups for the paper's thread counts."""
    model = build_cost_model(result, **model_kwargs)
    return {point.n_threads: point.speedup for point in model.speedup_curve(thread_counts)}
