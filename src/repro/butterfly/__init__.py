"""Butterfly (2,2-biclique) counting kernels."""

from .counting import (
    ButterflyCounts,
    count_per_vertex,
    count_per_vertex_priority,
    count_total_butterflies,
)
from .naive import (
    count_butterflies_exhaustive,
    count_per_vertex_wedge,
    count_per_vertex_wedge_restricted,
    enumerate_butterflies,
)
from .per_edge import EdgeButterflyCounts, count_per_edge
from .wedges import (
    iterate_wedges,
    pair_wedge_count,
    shared_butterflies,
    total_wedges,
    wedge_counts_from_vertex,
)

__all__ = [
    "ButterflyCounts",
    "count_per_vertex",
    "count_per_vertex_priority",
    "count_total_butterflies",
    "count_butterflies_exhaustive",
    "count_per_vertex_wedge",
    "count_per_vertex_wedge_restricted",
    "enumerate_butterflies",
    "EdgeButterflyCounts",
    "count_per_edge",
    "iterate_wedges",
    "pair_wedge_count",
    "shared_butterflies",
    "total_wedges",
    "wedge_counts_from_vertex",
]
