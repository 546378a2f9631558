"""Tip-number range determination for RECEIPT CD (Alg. 3, ``findHi``).

RECEIPT CD must pick the upper bound ``θ(i + 1)`` of the next tip-number
range so that the wedge workload of the resulting vertex subset is roughly
``1/P``-th of the total.  Neither the induced subgraphs nor the exact tip
numbers are known yet, so the paper uses two proxies: the wedge count of
every vertex in the *original* graph and the vertices' *current supports*.
Wedge counts are binned by support value, a prefix sum is taken over the
sorted bins and the smallest support whose cumulative work reaches the
target becomes the (inclusive) top of the range.  The vertices are sorted
by support with a plain (unstable) argsort: the order among ties cannot
change the chosen support, which depends only on the cumulative work at
the ends of the groups of equal support.

The adaptive behaviour of Sec. 3.1.1 — a dynamic per-subset target and a
scaling factor that corrects for the previous subset's overshoot — lives in
:class:`AdaptiveRangeTargeter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["find_range_upper_bound", "AdaptiveRangeTargeter"]


def find_range_upper_bound(
    supports: np.ndarray,
    wedge_work: np.ndarray,
    target_work: float,
) -> int:
    """Return the exclusive upper bound ``θ(i + 1)`` of the next range.

    Parameters
    ----------
    supports:
        Current supports of the vertices still to be partitioned.
    wedge_work:
        Their wedge counts in the original graph (the work proxy).
    target_work:
        Desired cumulative wedge work for the next subset.

    Returns
    -------
    int
        The smallest support value ``θ`` such that vertices with support
        ``<= θ`` carry at least ``target_work`` wedges, plus one (the bound
        is exclusive).  When the total work of all remaining vertices is
        below the target, the maximum support plus one is returned so that
        everything lands in the final subset.
    """
    supports = np.asarray(supports, dtype=np.int64)
    wedge_work = np.asarray(wedge_work, dtype=np.int64)
    if supports.size == 0:
        return 1
    if supports.shape != wedge_work.shape:
        raise ValueError("supports and wedge_work must have the same shape")

    # Any sort by support will do: ties form one contiguous group whatever
    # their order, the cumulative work at a group's end is the same exact
    # integer (float64 is exact below 2**53), and so the group that first
    # reaches the target, whose support is returned, is the same.
    order = np.argsort(supports)
    sorted_supports = supports[order]
    cumulative_work = np.cumsum(wedge_work[order].astype(np.float64))

    position = int(np.searchsorted(cumulative_work, float(target_work), side="left"))
    if position >= sorted_supports.size:
        chosen_support = int(sorted_supports[-1])
    else:
        chosen_support = int(sorted_supports[position])
    return chosen_support + 1


@dataclass
class AdaptiveRangeTargeter:
    """Two-way adaptive target computation for subset wedge work.

    Implements both mechanisms of Sec. 3.1.1:

    1. the target is recomputed for every subset from the wedge work of the
       *remaining* vertices and the number of subsets still to create, and
    2. the target is scaled by ``s = tgt / covered <= 1`` of the previous
       subset, assuming consecutive subsets overshoot similarly
       ("predictive local behaviour").
    """

    n_partitions: int
    partitions_created: int = 0
    scaling_factor: float = 1.0
    history: list[dict] = field(default_factory=list)

    def next_target(self, remaining_work: float) -> float:
        """Target wedge work for the next subset."""
        remaining_partitions = max(self.n_partitions - self.partitions_created, 1)
        base_target = float(remaining_work) / remaining_partitions
        return base_target * self.scaling_factor

    def record_subset(self, target_work: float, covered_work: float) -> None:
        """Record a finished subset and update the scaling factor."""
        self.partitions_created += 1
        if covered_work > 0 and target_work > 0:
            self.scaling_factor = min(1.0, float(target_work) / float(covered_work))
        else:
            self.scaling_factor = 1.0
        self.history.append(
            {
                "subset": self.partitions_created,
                "target_work": float(target_work),
                "covered_work": float(covered_work),
                "scaling_factor": self.scaling_factor,
            }
        )

    @property
    def exhausted(self) -> bool:
        """Whether the planned number of partitions has been created."""
        return self.partitions_created >= self.n_partitions
