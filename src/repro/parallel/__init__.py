"""Analytical cost model replaying measured parallel regions (Figs. 10-11)."""

from .costmodel import (
    DEFAULT_BARRIER_COST,
    ParallelCostModel,
    ParallelRegionRecord,
    RegionCost,
    SpeedupPoint,
)

__all__ = [
    "DEFAULT_BARRIER_COST",
    "ParallelCostModel",
    "ParallelRegionRecord",
    "RegionCost",
    "SpeedupPoint",
]
