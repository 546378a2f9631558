"""Exactness of FD's level-batched subset peel (``peel_levels``).

``peel_levels`` peels every vertex at a subset's minimum support as one
batch; ``peel_sequential`` pops one vertex at a time.  On the induced
subgraphs and ``⋈init`` vectors of real CD runs, both must assign the same
tip numbers and traverse the same wedges with either peel kernel, and the
two kernels must agree on every counter of the level loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.receipt import receipt_decomposition
from repro.graph.bipartite import BipartiteGraph
from repro.peeling.bup import bup_decomposition, peel_levels, peel_sequential

KERNELS = ("batched", "reference")
KERNEL_COUNTERS = ("wedges_traversed", "peeling_wedges", "support_updates",
                   "synchronization_rounds", "vertices_peeled", "dgm_compactions")


def _assert_levels_exact(graph: BipartiteGraph, n_partitions: int) -> None:
    counts = count_per_vertex_priority(graph).u_counts
    cd = coarse_grained_decomposition(graph, counts, n_partitions)
    for subset in cd.subsets:
        induced = graph.induced_on_u_subset(subset).graph
        init = cd.init_supports[subset]
        level_counters = {}
        for kernel in KERNELS:
            expected, sequential, _ = peel_sequential(
                induced, "U", init, enable_dgm=False, peel_kernel=kernel)
            tips, counters = peel_levels(induced, "U", init, peel_kernel=kernel)
            assert np.array_equal(tips, expected), kernel
            assert counters.vertices_peeled == subset.size
            assert counters.wedges_traversed == sequential.wedges_traversed
            level_counters[kernel] = counters
        for name in KERNEL_COUNTERS:
            assert (getattr(level_counters["batched"], name)
                    == getattr(level_counters["reference"], name)), name


class TestPeelLevelsExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 17), st.integers(0, 9)),
                       min_size=1, max_size=90, unique=True),
        n_partitions=st.integers(1, 6),
    )
    def test_hypothesis_cd_subsets(self, edges, n_partitions):
        _assert_levels_exact(BipartiteGraph(18, 10, edges), n_partitions)

    @pytest.mark.parametrize("n_partitions", [1, 3, 8])
    def test_community_graph_subsets(self, community_graph, n_partitions):
        _assert_levels_exact(community_graph, n_partitions)

    def test_blocks_graph_subsets(self, blocks_graph):
        _assert_levels_exact(blocks_graph, 4)

    def test_rejects_wrong_support_length(self, blocks_graph):
        with pytest.raises(ValueError):
            peel_levels(blocks_graph, "U", np.zeros(3))

    def test_empty_side(self):
        tips, counters = peel_levels(BipartiteGraph(0, 3, []), "U", np.zeros(0))
        assert tips.size == 0
        assert counters.vertices_peeled == 0


class TestReceiptMatchesBup:
    # P = 1 hands the whole graph to one FD task; P = 150 leaves most
    # subsets a single level.
    @pytest.mark.parametrize("n_partitions", [1, 8, 150])
    def test_partition_counts(self, medium_random_graph, n_partitions):
        reference = bup_decomposition(medium_random_graph, "U")
        result = receipt_decomposition(medium_random_graph, "U", n_partitions=n_partitions)
        assert np.array_equal(result.tip_numbers, reference.tip_numbers)
